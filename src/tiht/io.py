"""Self-describing container files for tensors and decompositions.

Layout: one UTF-8 JSON header line, then the raw little-endian scalar blocks
('<f8' real / '<c16' complex), each flattened in the package's linear order
(first index fastest).  Decompositions store their blocks back to back with
shapes (and the HT tree topology) carried in the header.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .formats import DimensionTree, HosvdDecomposition, HTDecomposition, TTDecomposition
from .tensors import as_tensor, field_of, unvec, vec

__all__ = [
    "save_tensor",
    "load_tensor",
    "save_decomposition",
    "load_decomposition",
]

_DTYPES = {"real": "<f8", "complex": "<c16"}


def _write(path, header: dict, blocks) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8"))
            fh.write(b"\n")
            dtype = _DTYPES[header["field"]]
            for block in blocks:
                fh.write(np.ascontiguousarray(vec(block), dtype=dtype).tobytes())
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _read(path):
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            payload = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    return header, payload


def _entry(header: dict, key: str):
    """A header field; a malformed header raises ValueError naming the field."""
    if key not in header:
        raise ValueError(f"malformed header: no {key!r} field")
    return header[key]


def _split_blocks(header: dict, payload: bytes, shapes):
    field = _entry(header, "field")
    if field not in _DTYPES:
        raise ValueError(f"malformed header: 'field' is {field!r}, expected one of {sorted(_DTYPES)}")
    dtype = np.dtype(_DTYPES[field])
    flat = np.frombuffer(payload, dtype=dtype)
    expected = sum(math.prod(s) for s in shapes)
    if flat.size != expected:
        raise ValueError(f"payload holds {flat.size} scalars, header implies {expected}")
    blocks = []
    offset = 0
    for shape in shapes:
        n = math.prod(shape)
        blocks.append(unvec(flat[offset : offset + n].copy(), shape))
        offset += n
    return blocks


def save_tensor(path, X) -> None:
    """Write a dense tensor: {order, dims, field} header plus the flat data."""
    X = as_tensor(X)
    header = {
        "kind": "tensor",
        "order": X.ndim,
        "dims": list(X.shape),
        "field": field_of(X),
    }
    _write(path, header, [X])


def load_tensor(path) -> np.ndarray:
    header, payload = _read(path)
    if header.get("kind") != "tensor":
        raise ValueError(f"{path} does not hold a tensor (kind={header.get('kind')!r})")
    (X,) = _split_blocks(header, payload, [tuple(_entry(header, "dims"))])
    return X


def save_decomposition(path, dec) -> None:
    """Write a HOSVD/TT/HT decomposition with its block shapes (and tree) in the header."""
    if isinstance(dec, HosvdDecomposition):
        blocks = [dec.core, *dec.factors]
        header = {
            "kind": "hosvd",
            "field": field_of(dec.core),
            "core_dims": list(dec.core.shape),
            "factor_dims": [list(U.shape) for U in dec.factors],
        }
    elif isinstance(dec, TTDecomposition):
        blocks = list(dec.cores)
        header = {
            "kind": "tt",
            "field": field_of(dec.cores[0]),
            "core_dims": [list(G.shape) for G in dec.cores],
        }
    elif isinstance(dec, HTDecomposition):
        interior = dec.tree.interior()
        blocks = [dec.transfers[t] for t in interior]
        blocks += [dec.frames[i] for i in range(dec.tree.order)]
        header = {
            "kind": "ht",
            "field": field_of(blocks[0]),
            "shape": list(dec.shape),
            "tree": dec.tree.to_nested(),
            "transfer_dims": [list(dec.transfers[t].shape) for t in interior],
            "frame_dims": [list(dec.frames[i].shape) for i in range(dec.tree.order)],
        }
    else:
        raise TypeError(f"cannot serialize object of type {type(dec).__name__}")
    _write(path, header, blocks)


def load_decomposition(path):
    header, payload = _read(path)
    kind = header.get("kind")
    if kind == "hosvd":
        shapes = [tuple(_entry(header, "core_dims"))]
        shapes += [tuple(s) for s in _entry(header, "factor_dims")]
        blocks = _split_blocks(header, payload, shapes)
        return HosvdDecomposition(core=blocks[0], factors=tuple(blocks[1:]))
    if kind == "tt":
        shapes = [tuple(s) for s in _entry(header, "core_dims")]
        return TTDecomposition(cores=tuple(_split_blocks(header, payload, shapes)))
    if kind == "ht":
        tree = DimensionTree(_entry(header, "tree"))
        interior = tree.interior()
        shapes = [tuple(s) for s in _entry(header, "transfer_dims")]
        shapes += [tuple(s) for s in _entry(header, "frame_dims")]
        blocks = _split_blocks(header, payload, shapes)
        transfers = dict(zip(interior, blocks[: len(interior)]))
        frames = dict(enumerate(blocks[len(interior) :]))
        return HTDecomposition(
            tree=tree, transfers=transfers, frames=frames, shape=tuple(_entry(header, "shape"))
        )
    raise ValueError(f"{path} does not hold a decomposition (kind={kind!r})")

