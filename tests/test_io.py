import json

import numpy as np
import pytest

from tiht.experiments import random_rank_r_tensor
from tiht.formats import DimensionTree, hosvd_truncate, ht_truncate, tt_truncate
from tiht.io import load_decomposition, load_tensor, save_decomposition, save_tensor
from tiht.tensors import frobenius_norm, vec


def test_tensor_roundtrip_real(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 4, 5))
    path = tmp_path / "x.tns"
    save_tensor(path, X)
    back = load_tensor(path)
    assert np.array_equal(back, X)
    assert back.dtype == np.float64


def test_tensor_roundtrip_complex(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    path = tmp_path / "x.tns"
    save_tensor(path, X)
    back = load_tensor(path)
    assert np.array_equal(back, X)
    assert back.dtype == np.complex128


def test_tensor_header_is_self_describing(tmp_path):
    X = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "x.tns"
    save_tensor(path, X)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    assert header == {"kind": "tensor", "order": 2, "dims": [2, 3], "field": "real"}
    flat = np.frombuffer(payload, dtype="<f8")
    assert np.array_equal(flat, vec(X))  # first index fastest on disk


def test_tensor_payload_mismatch_detected(tmp_path):
    X = np.zeros((2, 2))
    path = tmp_path / "x.tns"
    save_tensor(path, X)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        load_tensor(path)


def test_missing_file_error():
    with pytest.raises(OSError):
        load_tensor("/does/not/exist.tns")


def test_hosvd_decomposition_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 5, 6))
    D = hosvd_truncate(X, (2, 2, 2))
    path = tmp_path / "d.dec"
    save_decomposition(path, D)
    back = load_decomposition(path)
    assert np.array_equal(back.core, D.core)
    assert all(np.array_equal(a, b) for a, b in zip(back.factors, D.factors))
    assert np.array_equal(back.reconstruct(), D.reconstruct())


def test_tt_decomposition_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, 4, 5, 2))
    D = tt_truncate(X, (2, 3, 2))
    path = tmp_path / "d.dec"
    save_decomposition(path, D)
    back = load_decomposition(path)
    assert all(np.array_equal(a, b) for a, b in zip(back.cores, D.cores))


def test_ht_decomposition_roundtrip(tmp_path):
    tree = DimensionTree.balanced(4)
    X = random_rank_r_tensor((3, 4, 3, 2), "ht", 2, np.random.default_rng(4), tree)
    D = ht_truncate(X, tree, 2)
    path = tmp_path / "d.dec"
    save_decomposition(path, D)
    back = load_decomposition(path)
    assert back.tree == tree
    assert back.shape == (3, 4, 3, 2)
    for node in tree.interior():
        assert np.array_equal(back.transfers[node], D.transfers[node])
    for i in range(4):
        assert np.array_equal(back.frames[i], D.frames[i])
    assert frobenius_norm(back.reconstruct() - X) <= 1e-10 * frobenius_norm(X)


def test_complex_decomposition_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    D = hosvd_truncate(X, (2, 2, 2))
    path = tmp_path / "d.dec"
    save_decomposition(path, D)
    back = load_decomposition(path)
    assert np.array_equal(back.core, D.core)


def test_kind_mismatch_errors(tmp_path):
    X = np.zeros((2, 2))
    tpath = tmp_path / "x.tns"
    save_tensor(tpath, X)
    with pytest.raises(ValueError):
        load_decomposition(tpath)
    D = hosvd_truncate(np.eye(3), (1, 1))
    dpath = tmp_path / "d.dec"
    save_decomposition(dpath, D)
    with pytest.raises(ValueError):
        load_tensor(dpath)
    with pytest.raises(TypeError):
        save_decomposition(tmp_path / "bad.dec", np.zeros((2, 2)))


@pytest.mark.parametrize(
    "kind, edit, field",
    [
        ("tensor", lambda h: h.pop("dims"), "dims"),
        ("tensor", lambda h: h.pop("field"), "field"),
        ("tensor", lambda h: h.update(field="quaternion"), "field"),
        ("tt", lambda h: h.pop("core_dims"), "core_dims"),
    ],
    ids=["no-dims", "no-field", "quaternion", "tt-no-core-dims"],
)
def test_malformed_header_raises_value_error_naming_the_field(tmp_path, kind, edit, field):
    path = tmp_path / "x.bin"
    if kind == "tensor":
        save_tensor(path, np.ones((2, 3)))
        load = load_tensor
    else:
        save_decomposition(path, tt_truncate(np.ones((2, 3, 4)), (1, 1)))
        load = load_decomposition
    head, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
    with pytest.raises(ValueError, match=field):
        load(path)
