import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from promptseg.checkpoint import save_arrays

from helpers import load_arrays


def test_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=7),
        "scalar": np.asarray(2.5),
    }
    path = tmp_path / "x.ckpt"
    save_arrays(path, arrays)
    back = load_arrays(path)
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_save_is_deterministic(tmp_path):
    arrays = {"w": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_arrays(p1, arrays)
    save_arrays(p2, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_arrays(path)


def test_cut_file_rejected_naming_it(tmp_path):
    # cut inside the magic, the length field, the header and the payload
    path = tmp_path / "x.ckpt"
    save_arrays(path, {"w": np.arange(6.0).reshape(2, 3), "s": np.asarray(1.5)})
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(ValueError, match="cut.ckpt"):
            load_arrays(cut)


_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)


@settings(max_examples=40, deadline=None)
@given(hst.dictionaries(hst.text(max_size=6),
                        hnp.arrays(np.float64, _shapes, elements=hst.floats()),
                        max_size=4))
def test_round_trip_property(tmp_path_factory, arrays):
    path = tmp_path_factory.mktemp("ckpt") / "x.ckpt"
    save_arrays(path, arrays)
    back = load_arrays(path)
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()
