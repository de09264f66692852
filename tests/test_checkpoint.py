import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cqbrain.cqcnn import CqcnnConfig, CqcnnModel
from cqbrain.diffusion import NoisePredictor, NoisePredictorConfig, build_schedule
from cqbrain.errors import BadFormat, BadMagic, CqbrainError, InvalidArgument, Truncated
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
        with pytest.raises(BadFormat, match="version 9 unsupported"):
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
        with pytest.raises(BadFormat, match="appears twice"):
            deserialize_tensors(doubled)

    def test_too_long_name_rejected(self):
        with pytest.raises(InvalidArgument, match="too long"):
            serialize_tensors({"n" * 0x10000: np.ones(1, np.float32)})

    def test_non_utf8_name_rejected(self):
        data = serialize_tensors({"ab": np.ones(1, np.float32)})
        with pytest.raises(BadFormat, match="not UTF-8"):
            deserialize_tensors(data.replace(b"ab", b"\xff\xfe"))

    def test_dims_whose_product_overflows_are_truncated(self):
        header = b"CQCK" + struct.pack("<IIH", 1, 1, 1) + b"w" + struct.pack("<B4I", 4, *[2**32 - 1] * 4)
        with pytest.raises(Truncated):
            deserialize_tensors(header + b"\x00" * 64)

    def test_empty_tensor_with_dims_numpy_cannot_hold_is_bad_format(self):
        data = b"CQCK" + struct.pack("<IIH", 1, 1, 1) + b"w" + struct.pack("<B3I", 3, 0, 2**32 - 1, 2**32 - 1)
        with pytest.raises(BadFormat, match="'w' dims"):
            deserialize_tensors(data)

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
        assert back.config.fc_width == 4
        assert back.config.dropout_rate == pytest.approx(0.25)
        for key, val in model.params().items():
            assert np.array_equal(back.params()[key], val), key

    def test_unet_roundtrip(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(5))
        back = unpack_unet(deserialize_tensors(serialize_tensors(pack_unet(model))))
        assert back.config.widths == model.config.widths == (8, 16, 32, 64, 128)
        for key, val in model.params().items():
            assert np.array_equal(back.params()[key], val), key

    def test_predictor_roundtrip(self):
        pred = NoisePredictor(NoisePredictorConfig(8, (4, 8), 8), Rng(6))
        packed = pack_predictor(pred, build_schedule(200, 1e-4, 0.02))
        back, sched = unpack_predictor(deserialize_tensors(serialize_tensors(packed)))
        assert sched.T == 200
        assert sched.beta_start == pytest.approx(1e-4, rel=1e-5)
        for key, val in pred.params().items():
            assert np.array_equal(back.params()[key], val), key

    # Each kind loads back into a config equal to the packed one, resolved values included. The floats
    # are f32-exact; the classifier's seed only picks a fresh model's weights and is not stored.
    def test_classifier_config_round_trips(self):
        model = CqcnnModel(CqcnnConfig(image_size=16, n_qubits=3, dropout_rate=0.25))
        back = unpack_cqcnn(deserialize_tensors(serialize_tensors(pack_cqcnn(model))))
        assert back.config == model.config == CqcnnConfig(image_size=16, n_qubits=3, fc_width=3, dropout_rate=0.25)

    def test_segmenter_config_round_trips(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.125), Rng(0))
        back = unpack_unet(deserialize_tensors(serialize_tensors(pack_unet(model))))
        assert back.config == model.config == UNetConfig(input_size=16, widths=(4, 8, 16, 32, 64))

    def test_denoiser_config_and_schedule_round_trip(self):
        model = NoisePredictor(NoisePredictorConfig(8, [2, 4], 8), Rng(0))
        schedule = build_schedule(7, 0.0078125, 0.25)
        back, back_schedule = unpack_predictor(deserialize_tensors(serialize_tensors(pack_predictor(model, schedule))))
        assert back.config == model.config == NoisePredictorConfig(8, (2, 4), 8)
        assert back_schedule == schedule
        assert np.array_equal(back_schedule.alpha_bars, schedule.alpha_bars)

    @pytest.mark.parametrize("meta, value, message", [
        ("meta_beta_end", 1.5, r"need 0 < beta_start <= beta_end < 1"),
        ("meta_beta_start", 0.0, r"need 0 < beta_start <= beta_end < 1"),
        ("meta_T", 0.0, "T must be >= 1"),
    ])
    def test_out_of_range_schedule_is_bad_format(self, meta, value, message):
        tensors = pack_predictor(NoisePredictor(NoisePredictorConfig(8, (2, 4), 8), Rng(0)),
                                 build_schedule(5, 0.05, 0.3))
        tensors[meta] = np.float32(value)
        with pytest.raises(BadFormat, match=f"describes no noise schedule: {message}"):
            unpack_predictor(tensors)

    def test_kind_mismatch_rejected(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(7))
        tensors = pack_unet(model)
        with pytest.raises(BadFormat):
            unpack_cqcnn(tensors)
        with pytest.raises(BadFormat):
            unpack_predictor(tensors)

    @pytest.mark.parametrize("meta, value, message", [
        ("meta_head", 7.0, "head must be"),
        ("meta_n_qubits", 4.0, "n_qubits must be 2 or 3"),
        ("meta_n_qubits", 2.5, "expected integers"),
        ("meta_dropout", np.inf, "expected finite values"),
        ("meta_image_size", np.array([16.0, 16.0], np.float32), "expected one value"),
        ("meta_conv1_out", 0.0, "'meta_conv1_out' is 0, every classifier has 2"),
        ("meta_conv2_out", 8.0, "'meta_conv2_out' is 8, every classifier has 4"),
        ("meta_kernel", 3.0, "'meta_kernel' is 3, every classifier has 5"),
    ])
    def test_bad_classifier_metadata_is_bad_format(self, meta, value, message):
        tensors = pack_cqcnn(CqcnnModel(CqcnnConfig(image_size=16)))
        tensors[meta] = np.asarray(value, np.float32)
        with pytest.raises(BadFormat, match=message):
            unpack_cqcnn(tensors)

    @pytest.mark.parametrize("meta, value, message", [
        ("meta_in_channels", 0.0, "'meta_in_channels' is 0, every segmenter has 1"),
        ("meta_out_channels", 0.0, "'meta_out_channels' is 0, every segmenter has 1"),
        ("meta_widths", [0.0, 4.0], "channel counts must be >= 1"),
    ])
    def test_zero_segmenter_channels_are_bad_format(self, meta, value, message):
        tensors = pack_unet(UNet(UNetConfig(input_size=16, widths=(2, 4)), Rng(0)))
        tensors[meta] = np.asarray(value, np.float32)
        with pytest.raises(BadFormat, match=message):
            unpack_unet(tensors)

    @pytest.mark.parametrize("unpack", [unpack_cqcnn, unpack_unet, unpack_predictor])
    def test_missing_unknown_or_resized_parameters_are_bad_format(self, unpack):
        packers = {unpack_cqcnn: lambda: pack_cqcnn(CqcnnModel(CqcnnConfig(image_size=16))),
                   unpack_unet: lambda: pack_unet(UNet(UNetConfig(input_size=16, widths=(2, 4)), Rng(0))),
                   unpack_predictor: lambda: pack_predictor(
                       NoisePredictor(NoisePredictorConfig(8, (2, 4), 8), Rng(0)), build_schedule(5, 0.05, 0.3))}
        first = sorted(k for k in packers[unpack]() if k.startswith("param_"))[0]
        for damage in (lambda t: t.pop(first), lambda t: t.update(param_zz=np.ones(1, np.float32)),
                       lambda t: t.update({first: np.ones(t[first].size + 1, np.float32)})):
            tensors = packers[unpack]()
            damage(tensors)
            with pytest.raises(BadFormat):
                unpack(tensors)


    @pytest.mark.parametrize("unpack, meta, value", [
        (unpack_cqcnn, "meta_image_size", 4096.0),
        (unpack_unet, "meta_widths", [2.0, 1024.0]),
        (unpack_predictor, "meta_widths", [2.0, 1024.0]),
    ])
    def test_oversized_metadata_is_bad_format_before_allocating(self, unpack, meta, value):
        packers = {unpack_cqcnn: lambda: pack_cqcnn(CqcnnModel(CqcnnConfig(image_size=16))),
                   unpack_unet: lambda: pack_unet(UNet(UNetConfig(input_size=16, widths=(2, 4)), Rng(0))),
                   unpack_predictor: lambda: pack_predictor(
                       NoisePredictor(NoisePredictorConfig(8, (2, 4), 8), Rng(0)), build_schedule(5, 0.05, 0.3))}
        tensors = packers[unpack]()
        tensors[meta] = np.asarray(value, np.float32)
        tracemalloc.start()
        try:
            with pytest.raises(BadFormat, match="holds"):
                unpack(tensors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the model these sizes describe would take tens of MB

    def test_odd_embedding_dim_is_bad_format(self):
        tensors = pack_predictor(NoisePredictor(NoisePredictorConfig(8, (2, 4), 8), Rng(0)),
                                 build_schedule(5, 0.05, 0.3))
        tensors["meta_emb_dim"] = np.float32(7)
        with pytest.raises(BadFormat, match="embedding dim"):
            unpack_predictor(tensors)


_NAMES = st.text(min_size=0, max_size=12)
_TENSORS = st.dictionaries(_NAMES, hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
                                              elements=st.floats(width=32, allow_nan=True)), max_size=4)


class TestProperties:
    """Any byte string parses or raises a CqbrainError; serialize-then-deserialize is the identity."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_parse_or_raise_a_package_error(self, data):
        try:
            deserialize_tensors(data)
        except CqbrainError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(_TENSORS, st.data())
    def test_damaged_checkpoints_parse_or_raise_a_package_error(self, tensors, draw):
        data = bytearray(serialize_tensors(tensors))
        for _ in range(draw.draw(st.integers(1, 4))):
            if data:
                data[draw.draw(st.integers(0, len(data) - 1))] = draw.draw(st.integers(0, 255))
        cut = draw.draw(st.integers(0, len(data)))
        try:
            deserialize_tensors(bytes(data[:cut] if draw.draw(st.booleans()) else data))
        except CqbrainError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(_TENSORS)
    def test_serialize_then_deserialize_is_the_identity(self, tensors):
        back = deserialize_tensors(serialize_tensors(tensors))
        assert list(back) == sorted(tensors)
        for name, value in tensors.items():
            assert back[name].shape == value.shape
            assert back[name].tobytes() == value.tobytes()
