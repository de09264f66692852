import numpy as np
import pytest

from cqbrain.cqcnn import CqcnnConfig, CqcnnModel
from cqbrain.diffusion import NoisePredictor, NoisePredictorConfig
from cqbrain.errors import BadFormat, BadMagic, BadVersion, DuplicateName, Truncated
from cqbrain.pipeline.checkpoint import (
    deserialize_tensors,
    load_checkpoint,
    save_checkpoint,
    serialize_tensors,
)
from cqbrain.pipeline.modelio import (
    pack_cqcnn,
    pack_predictor,
    pack_unet,
    unpack_cqcnn,
    unpack_predictor,
    unpack_unet,
)
from cqbrain.rng import Rng
from cqbrain.skullnet import UNet, UNetConfig


class TestWireFormat:
    def test_empty_map_is_12_bytes(self):
        data = serialize_tensors({})
        assert len(data) == 12
        assert data[:4] == b"CQCK"
        assert deserialize_tensors(data) == {}

    def test_roundtrip_random_tensors(self):
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.standard_normal((3, 4)).astype(np.float32),
            "b/scalar": np.array(2.5, np.float32),
            "c_vec": rng.standard_normal(7).astype(np.float32),
        }
        back = deserialize_tensors(serialize_tensors(tensors))
        assert set(back) == set(tensors)
        for key in tensors:
            assert back[key].shape == tensors[key].shape
            assert np.array_equal(back[key], tensors[key])

    def test_serialization_is_canonical(self):
        a = {"x": np.ones(2, np.float32), "y": np.zeros(3, np.float32)}
        b = {"y": np.zeros(3, np.float32), "x": np.ones(2, np.float32)}
        assert serialize_tensors(a) == serialize_tensors(b)

    def test_double_roundtrip_bit_identical(self):
        tensors = {"w": np.random.default_rng(1).standard_normal((5, 5)).astype(np.float32)}
        once = serialize_tensors(tensors)
        twice = serialize_tensors(deserialize_tensors(once))
        assert once == twice

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            deserialize_tensors(b"NOPE" + b"\x00" * 20)

    def test_bad_version(self):
        data = bytearray(serialize_tensors({}))
        data[4] = 9
        with pytest.raises(BadVersion):
            deserialize_tensors(bytes(data))

    def test_truncated_tail(self):
        data = serialize_tensors({"w": np.ones((2, 2), np.float32)})
        with pytest.raises(Truncated):
            deserialize_tensors(data[:-4])

    def test_trailing_bytes_rejected(self):
        data = serialize_tensors({"w": np.ones((2, 2), np.float32)})
        with pytest.raises(BadFormat):
            deserialize_tensors(data + b"\x00")
        with pytest.raises(BadFormat):
            deserialize_tensors(serialize_tensors({}) + b"CQCK")

    def test_truncated_header(self):
        with pytest.raises(Truncated):
            deserialize_tensors(b"CQCK\x01\x00")

    def test_duplicate_name_rejected(self):
        single = serialize_tensors({"w": np.ones(1, np.float32)})
        body = single[12:]
        doubled = single[:8] + (2).to_bytes(4, "little") + body + body
        with pytest.raises(DuplicateName):
            deserialize_tensors(doubled)

    def test_file_roundtrip(self, tmp_path):
        tensors = {"t": np.arange(6, dtype=np.float32).reshape(2, 3)}
        path = tmp_path / "model.cqck"
        written = save_checkpoint(path, tensors)
        assert path.read_bytes() == written
        assert np.array_equal(load_checkpoint(path)["t"], tensors["t"])


class TestModelPacking:
    def test_cqcnn_roundtrip(self):
        model = CqcnnModel(CqcnnConfig(image_size=16, n_qubits=3, fc_width=4,
                                       dropout_rate=0.25, seed=3))
        back = unpack_cqcnn(deserialize_tensors(serialize_tensors(pack_cqcnn(model))))
        assert back.config.n_qubits == 3
        assert back.config.fc_out == 4
        assert back.config.dropout_rate == pytest.approx(0.25)
        for key, val in model.params().items():
            assert np.array_equal(back.params()[key], val), key

    def test_unet_roundtrip(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(5))
        back = unpack_unet(deserialize_tensors(serialize_tensors(pack_unet(model))))
        assert back.config.scaled_widths == model.config.scaled_widths
        for key, val in model.params.items():
            assert np.array_equal(back.params[key], val), key

    def test_predictor_roundtrip(self):
        pred = NoisePredictor(NoisePredictorConfig(8, (4, 8), 8), Rng(6))
        packed = pack_predictor(pred, (200, 1e-4, 0.02))
        back, sched = unpack_predictor(deserialize_tensors(serialize_tensors(packed)))
        assert sched[0] == 200
        assert sched[1] == pytest.approx(1e-4, rel=1e-5)
        for key, val in pred.params().items():
            assert np.array_equal(back.params()[key], val), key

    def test_kind_mismatch_rejected(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(7))
        tensors = pack_unet(model)
        with pytest.raises(BadFormat):
            unpack_cqcnn(tensors)
        with pytest.raises(BadFormat):
            unpack_predictor(tensors)
