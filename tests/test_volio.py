import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cqbrain import volio
from cqbrain.errors import BadFormat, BadMagic, CqbrainError, InvalidArgument, Truncated
from cqbrain.volio import Image2D, Plane

from fixtures import nifti_bytes, volume_from_coordinate
from oracles import whole_field_slice


def _with_header_float(payload: bytes, offset: int, value: float) -> bytes:
    """`payload` with the little-endian float32 header field at `offset` set to `value`."""
    data = bytearray(payload)
    struct.pack_into("<f", data, offset, value)
    return bytes(data)


class TestParseNifti:
    def test_float32_volume_roundtrip(self):
        payload = nifti_bytes((4, 4, 4), np.arange(64, dtype=np.float64))
        header, vol = volio.parse_nifti(payload)
        assert header.sizeof_hdr == 348
        assert header.dim[:4] == (3, 4, 4, 4)
        assert (vol.nx, vol.ny, vol.nz) == (4, 4, 4)
        assert np.array_equal(vol.voxels, np.arange(64, dtype=np.float32))

    def test_bad_magic(self):
        payload = bytearray(nifti_bytes((2, 2, 2), np.zeros(8)))
        payload[344:348] = b"XXXX"
        with pytest.raises(BadMagic):
            volio.parse_nifti(bytes(payload))

    def test_int16_with_scaling(self):
        payload = nifti_bytes((1, 1, 1), np.array([3]), datatype=4, scl_slope=2.0, scl_inter=1.0)
        _, vol = volio.parse_nifti(payload)
        assert vol.voxels[0] == pytest.approx(7.0)

    def test_zero_slope_means_raw_values(self):
        payload = nifti_bytes((1, 1, 2), np.array([5, -5]), datatype=4)
        _, vol = volio.parse_nifti(payload)
        assert vol.voxels.tolist() == [5.0, -5.0]

    def test_truncated_header(self):
        with pytest.raises(Truncated):
            volio.parse_nifti(b"\x00" * 100)

    def test_truncated_raster(self):
        payload = nifti_bytes((4, 4, 4), np.arange(64))
        with pytest.raises(Truncated):
            volio.parse_nifti(payload[:-8])

    @pytest.mark.parametrize("rank", [1, 2, 4, 7])
    def test_bad_rank(self, rank):
        payload = nifti_bytes((2, 2, 2), np.zeros(8), rank=rank)
        with pytest.raises(BadFormat, match="only rank-3"):
            volio.parse_nifti(payload)

    @pytest.mark.parametrize("code", [0, 2, 8, 64, 512])
    def test_unsupported_datatype(self, code):
        payload = nifti_bytes((2, 2, 2), np.zeros(8), datatype=code, bitpix=32)
        with pytest.raises(BadFormat, match="datatype code"):
            volio.parse_nifti(payload)

    def test_bitpix_mismatch_rejected(self):
        payload = nifti_bytes((2, 2, 2), np.zeros(8), datatype=16, bitpix=16)
        with pytest.raises(BadFormat, match="inconsistent with datatype"):
            volio.parse_nifti(payload)

    def test_big_endian_byte_swap(self):
        le = volio.parse_nifti(nifti_bytes((3, 2, 2), np.arange(12) * 1.5))[1]
        be = volio.parse_nifti(nifti_bytes((3, 2, 2), np.arange(12) * 1.5, big_endian=True))[1]
        assert np.array_equal(le.voxels, be.voxels)

    def test_two_file_magic_is_bad_magic(self):
        with pytest.raises(BadMagic, match="ni1"):
            volio.parse_nifti(nifti_bytes((2, 2, 2), np.arange(8), magic=b"ni1\x00"))

    @pytest.mark.parametrize("vox_offset", [math.nan, math.inf, -math.inf, 3.5, 352.5])
    def test_non_integral_vox_offset_is_bad_format(self, vox_offset):
        payload = _with_header_float(nifti_bytes((2, 2, 2), np.zeros(8)), 108, vox_offset)
        with pytest.raises(BadFormat, match="vox_offset"):
            volio.parse_nifti(payload)

    @pytest.mark.parametrize("vox_offset", [0.0, 16.0, 348.0, 351.0])
    def test_single_file_vox_offset_inside_the_header_is_bad_format(self, vox_offset):
        payload = _with_header_float(nifti_bytes((2, 2, 2), np.arange(8)), 108, vox_offset)
        with pytest.raises(BadFormat, match="inside the 352-byte"):
            volio.parse_nifti(payload)

    @pytest.mark.parametrize("field", [112, 116])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scaling_is_bad_format(self, field, value):
        payload = nifti_bytes((2, 2, 2), np.arange(8), datatype=4, scl_slope=2.0, scl_inter=1.0)
        with pytest.raises(BadFormat, match="non-finite intensity scaling"):
            volio.parse_nifti(_with_header_float(payload, field, value))

    def test_raw_voxels_are_a_view_into_the_payload(self):
        payload = nifti_bytes((2, 2, 2), np.arange(8), datatype=4, scl_slope=2.0, scl_inter=1.0)
        _, vol = volio.parse_nifti(payload)
        assert vol.raw.base is not None and not vol.raw.flags.owndata
        assert vol.raw.dtype == np.dtype("<i2")
        assert vol.raw.tolist() == list(range(8))
        assert vol.voxels.tolist() == [2.0 * v + 1.0 for v in range(8)]

    def test_pure_function_of_bytes(self):
        payload = nifti_bytes((3, 3, 3), np.arange(27) - 13.0)
        a = volio.parse_nifti(payload)
        b = volio.parse_nifti(payload)
        assert a[0] == b[0]
        assert np.array_equal(a[1].voxels, b[1].voxels)


class TestSlicePlanning:
    @pytest.mark.parametrize("m,n,expected", [(256, 40, 6), (192, 40, 4), (7, 7, 1), (100, 1, 100)])
    def test_interval(self, m, n, expected):
        assert volio.compute_interval(m, n) == expected

    @pytest.mark.parametrize("m,n", [(10, 0), (10, 11)])
    def test_interval_invalid(self, m, n):
        with pytest.raises(InvalidArgument):
            volio.compute_interval(m, n)

    @pytest.mark.parametrize(
        "plane,m,n,k1,k2,exp_i,exp_slices",
        [
            (Plane.AXIAL, 256, 40, 10, 18, 6, 15),
            (Plane.CORONAL, 256, 40, 10, 18, 6, 15),
            (Plane.SAGITTAL, 192, 40, 13, 15, 4, 20),
            (Plane.AXIAL, 10, 5, 0, 0, 2, 5),
        ],
    )
    def test_plan(self, plane, m, n, k1, k2, exp_i, exp_slices):
        plan = volio.plan_slices(plane, m, n, k1, k2)
        assert plan.i == exp_i
        assert plan.n_slices == exp_slices

    def test_empty_plan(self):
        with pytest.raises(InvalidArgument, match="all excluded"):
            volio.plan_slices(Plane.AXIAL, 10, 5, 3, 2)

    def test_negative_exclusion_rejected(self):
        with pytest.raises(InvalidArgument, match="non-negative"):
            volio.plan_slices(Plane.AXIAL, 10, 5, -1, 0)

    def test_indices_are_strided_and_skip_head(self):
        plan = volio.plan_slices(Plane.AXIAL, 20, 10, 2, 3)
        assert plan.indices == [4, 6, 8, 10, 12]

    @given(
        m=st.integers(1, 600),
        n=st.integers(1, 600),
        k1=st.integers(0, 5),
        k2=st.integers(0, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_plan_properties(self, m, n, k1, k2):
        if n > m:
            with pytest.raises(InvalidArgument):
                volio.compute_interval(m, n)
            return
        i = volio.compute_interval(m, n)
        assert i >= 1 and i * n <= m
        try:
            plan = volio.plan_slices(Plane.AXIAL, m, n, k1, k2)
        except InvalidArgument:
            assert math.ceil(m / i) <= k1 + k2
            return
        assert plan.n_slices == math.ceil(m / i) - (k1 + k2)
        assert all(0 <= idx <= m - 1 for idx in plan.indices)
        # weakly fewer slices as exclusions grow
        try:
            wider = volio.plan_slices(Plane.AXIAL, m, n, k1 + 1, k2)
            assert wider.n_slices <= plan.n_slices
        except InvalidArgument:
            pass


class TestExtractSlice:
    def test_axial_constant_slice_normalizes_to_zero(self):
        vol = volio.Volume3D(4, 4, 4, volume_from_coordinate(4, "z"))
        img = volio.extract_slice(vol, Plane.AXIAL, 2)
        assert img.width == 4 and img.height == 4
        assert np.array_equal(img.pixels, np.zeros((4, 4), dtype=np.float32))

    def test_sagittal_selects_y(self):
        vol = volio.Volume3D(2, 2, 2, volume_from_coordinate(2, "y"))
        img = volio.extract_slice(vol, Plane.SAGITTAL, 1)
        assert np.array_equal(img.pixels, np.zeros((2, 2), dtype=np.float32))

    def test_coronal_selects_x(self):
        vol = volio.Volume3D(2, 2, 2, volume_from_coordinate(2, "x"))
        img = volio.extract_slice(vol, Plane.CORONAL, 0)
        assert np.array_equal(img.pixels, np.zeros((2, 2), dtype=np.float32))

    def test_axial_gradient_orientation(self):
        # voxel value = x: axial slice must vary along the width (columns)
        vol = volio.Volume3D(4, 4, 4, volume_from_coordinate(4, "x"))
        img = volio.extract_slice(vol, Plane.AXIAL, 1)
        expected = np.tile(np.arange(4, dtype=np.float32) / 3.0, (4, 1))
        assert np.allclose(img.pixels, expected)

    def test_minmax_normalization(self):
        vox = np.zeros(8)
        vox[0] = -2.0
        vox[3] = 6.0
        vol = volio.Volume3D(2, 2, 2, vox)
        img = volio.extract_slice(vol, Plane.AXIAL, 0)
        assert img.pixels.min() == 0.0 and img.pixels.max() == 1.0

    def test_index_out_of_range(self):
        vol = volio.Volume3D(2, 3, 4, np.zeros(24))
        with pytest.raises(InvalidArgument):
            volio.extract_slice(vol, Plane.AXIAL, 4)
        with pytest.raises(InvalidArgument):
            volio.extract_slice(vol, Plane.CORONAL, -1)
        with pytest.raises(InvalidArgument):
            volio.extract_slice(vol, Plane.SAGITTAL, 3)

    @pytest.mark.parametrize("plane, index", [(Plane.AXIAL, 1), (Plane.CORONAL, 2), (Plane.SAGITTAL, 0)])
    @pytest.mark.parametrize("raw, slope", [
        (np.array(np.nan, np.float32), 0.0),
        (np.array(np.inf, np.float32), 0.0),
        (np.array(30000, np.int16), 1e35),  # 3e39 overflows float32
    ], ids=["nan", "inf", "slope-overflow"])
    def test_non_finite_cross_section_rejected(self, plane, index, raw, slope):
        grid = np.ones((3, 3, 3), raw.dtype)
        grid[1, 0, 2] = raw  # z = 1, y = 0, x = 2: on axial 1, coronal 2 and sagittal 0
        vol = volio.Volume3D(3, 3, 3, grid.reshape(-1), scl_slope=slope)
        with pytest.raises(BadFormat, match=f"^{plane.value} slice {index} holds non-finite values"):
            volio.extract_slice(vol, plane, index)
        other = volio.extract_slice(vol, plane, index - 1 if index else 1)
        assert np.isfinite(other.pixels).all()

    def test_full_plan_over_three_planes_yields_50_images(self):
        # full scanner-sized volume: 256 x 192 x 256 voxels
        nx, ny, nz = 256, 192, 256
        vox = np.linspace(0.0, 1.0, nx * ny * nz, dtype=np.float32)
        vol = volio.Volume3D(nx, ny, nz, vox)
        table = {
            Plane.AXIAL: (40, 10, 18),
            Plane.CORONAL: (40, 10, 18),
            Plane.SAGITTAL: (40, 13, 15),
        }
        images = []
        for plane, (n, k1, k2) in table.items():
            plan = volio.plan_slices(plane, vol.plane_extent(plane), n, k1, k2)
            for idx in plan.indices:
                images.append(volio.extract_slice(vol, plane, idx))
        assert len(images) == 50
        assert all(img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0 for img in images)


def _volume_payload(dims, datatype, big_endian, slope, inter, seed=0):
    """A random volume with a constant axial slice at z = 1."""
    rng = np.random.default_rng(seed)
    count = dims[0] * dims[1] * dims[2]
    if datatype == 4:
        values = rng.integers(-2000, 2000, count)
    else:
        values = rng.normal(0.0, 300.0, count)
    values = values.reshape(dims[2], dims[1], dims[0])
    values[1] = values[1, 0, 0]
    return nifti_bytes(dims, values.reshape(-1), datatype=datatype, scl_slope=slope,
                       scl_inter=inter, big_endian=big_endian)


class TestPerSliceConversion:
    """Slices convert only their cross-section, byte-identical to cutting the whole float32 field."""

    @pytest.mark.parametrize("datatype", [4, 16])
    @pytest.mark.parametrize("big_endian", [False, True])
    @pytest.mark.parametrize("slope, inter", [(0.0, 0.0), (0.0, 9.0), (1.37, -5.5), (-0.3, 2000.0)])
    def test_every_slice_equals_the_whole_field_oracle(self, datatype, big_endian, slope, inter):
        payload = _volume_payload((7, 5, 6), datatype, big_endian, slope, inter)
        _, vol = volio.parse_nifti(payload)
        for plane in Plane:
            for index in range(vol.plane_extent(plane)):
                got = volio.extract_slice(vol, plane, index)
                want = whole_field_slice(vol, plane, index)
                assert (got.width, got.height) == (want.width, want.height)
                assert got.pixels.dtype == want.pixels.dtype == np.float32
                assert got.pixels.tobytes() == want.pixels.tobytes()
                assert volio.write_pgm(volio.resize_bilinear(got, 9, 9)) == \
                    volio.write_pgm(volio.resize_bilinear(want, 9, 9))
        constant = volio.extract_slice(vol, Plane.AXIAL, 1)
        assert not constant.pixels.any()

    def test_parsing_and_slicing_peak_below_an_eighth_of_the_field(self):
        dims = (64, 64, 64)
        payload = _volume_payload(dims, 4, False, 1.5, 10.0)
        field_bytes = 4 * dims[0] * dims[1] * dims[2]
        tracemalloc.start()
        try:
            _, vol = volio.parse_nifti(payload)
            for plane in Plane:
                for index in range(0, 64, 8):
                    volio.extract_slice(vol, plane, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < field_bytes / 8, f"peak {peak} B, float32 field {field_bytes} B"


_HEADER_FIELD_BYTES = [*range(0, 4), *range(40, 48), *range(70, 74), *range(108, 120), *range(344, 348)]


@st.composite
def _volumes(draw):
    """(dims, stored values, datatype, big_endian, slope, inter)."""
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    count = dims[0] * dims[1] * dims[2]
    datatype = draw(st.sampled_from([4, 16]))
    if datatype == 4:
        elements = st.integers(-32768, 32767)
    else:
        elements = st.floats(-1e6, 1e6, width=32)
    values = np.array(draw(st.lists(elements, min_size=count, max_size=count)),
                      dtype=np.int16 if datatype == 4 else np.float32)
    scaled = draw(st.booleans())
    slope = draw(st.floats(-100, 100, width=32).filter(bool)) if scaled else 0.0
    inter = draw(st.floats(-100, 100, width=32)) if scaled else 0.0
    return dims, values, datatype, draw(st.booleans()), slope, inter


def _encode(dims, values, datatype, big_endian, slope, inter):
    return nifti_bytes(dims, values, datatype=datatype, scl_slope=slope, scl_inter=inter,
                       big_endian=big_endian)


class TestNiftiProperties:
    """Any byte string parses or raises a CqbrainError; write-then-read is the identity."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=500))
    def test_arbitrary_bytes_parse_or_raise_a_package_error(self, data):
        try:
            volio.parse_nifti(data)
        except CqbrainError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(_volumes(), st.data())
    def test_damaged_payloads_parse_or_raise_a_package_error(self, volume, draw):
        data = bytearray(_encode(*volume))
        for _ in range(draw.draw(st.integers(1, 4))):
            pos = draw.draw(st.one_of(st.sampled_from(_HEADER_FIELD_BYTES),
                                      st.integers(0, len(data) - 1)))
            data[pos] = draw.draw(st.integers(0, 255))
        cut = draw.draw(st.integers(0, len(data)))
        try:
            _, vol = volio.parse_nifti(bytes(data[:cut] if draw.draw(st.booleans()) else data))
        except CqbrainError:
            return
        assert vol.raw.size == vol.nx * vol.ny * vol.nz

    @settings(max_examples=200, deadline=None)
    @given(_volumes())
    def test_write_then_read_is_the_identity(self, volume):
        dims, values, datatype, big_endian, slope, inter = volume
        header, vol = volio.parse_nifti(_encode(*volume))
        assert (vol.nx, vol.ny, vol.nz) == dims
        assert header.dim[:4] == (3, *dims)
        assert header.datatype == datatype
        assert header.magic == b"n+1\x00"
        assert header.vox_offset == 352.0
        assert (vol.scl_slope, vol.scl_inter) == (header.scl_slope, header.scl_inter) == (slope, inter)
        assert vol.raw.dtype == np.dtype((">" if big_endian else "<") + ("i2" if datatype == 4 else "f4"))
        assert vol.raw.astype(values.dtype).tobytes() == values.tobytes()
        field = values.astype(np.float32)
        if slope != 0.0:
            field = field * np.float32(slope) + np.float32(inter)
        assert vol.voxels.tobytes() == field.tobytes()


class TestResize:
    def test_constant_stays_constant(self):
        img = Image2D(3, 3, np.full((3, 3), 0.25))
        out = volio.resize_bilinear(img, 7, 5)
        assert np.allclose(out.pixels, 0.25)

    def test_corner_aligned_hand_values(self):
        # derived by hand from the corner-aligned formula on [[0,1],[0,1]]
        img = Image2D(2, 2, np.array([[0.0, 1.0], [0.0, 1.0]]))
        out = volio.resize_bilinear(img, 4, 4)
        expected_row = np.array([0.0, 1 / 3, 2 / 3, 1.0], dtype=np.float32)
        for row in out.pixels:
            assert np.allclose(row, expected_row, atol=1e-7)

    def test_identity_resize(self):
        pix = np.linspace(0, 1, 12).reshape(3, 4)
        img = Image2D(4, 3, pix)
        out = volio.resize_bilinear(img, 4, 3)
        assert np.allclose(out.pixels, pix.astype(np.float32))

    def test_single_pixel_target(self):
        img = Image2D(2, 2, np.array([[0.0, 1.0], [0.5, 0.25]]))
        out = volio.resize_bilinear(img, 1, 1)
        assert out.pixels.shape == (1, 1)
        assert 0.0 <= out.pixels[0, 0] <= 1.0

    def test_output_clamped(self):
        img = Image2D(2, 1, np.array([[0.0, 1.0]]))
        out = volio.resize_bilinear(img, 9, 2)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_fit_returns_the_image_itself_at_its_size(self):
        img = Image2D(4, 3, np.linspace(0, 1, 12).reshape(3, 4))
        assert volio.fit(img, 4, 3) is img
        out = volio.fit(img, 3, 4)
        assert (out.width, out.height) == (3, 4)
        assert out.pixels.tobytes() == volio.resize_bilinear(img, 3, 4).pixels.tobytes()


class TestPgm:
    def test_full_intensity_byte(self):
        data = volio.write_pgm(Image2D(1, 1, np.array([[1.0]])))
        assert data.endswith(b"\xff")
        assert data.startswith(b"P5\n1 1\n255\n")

    def test_roundtrip_quantized(self):
        rng = np.random.default_rng(0)
        pix = np.floor(rng.random((5, 7)) * 255.0 + 0.5) / 255.0
        img = Image2D(7, 5, pix)
        back = volio.read_pgm(volio.write_pgm(img))
        assert back.width == 7 and back.height == 5
        assert np.allclose(back.pixels, img.pixels, atol=1e-7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pixel_is_invalid_argument(self, bad):
        with pytest.raises(InvalidArgument, match="3x2 image has non-finite pixels"):
            volio.write_pgm(Image2D(3, 2, np.array([[0.0, 0.5, 1.0], [0.2, bad, 0.4]])))

    def test_bad_magic(self):
        with pytest.raises(BadFormat):
            volio.read_pgm(b"P2\n1 1\n255\n\x00")

    def test_bad_maxval(self):
        with pytest.raises(BadFormat):
            volio.read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated_raster(self):
        with pytest.raises(BadFormat):
            volio.read_pgm(b"P5\n2 2\n255\n\x00\x00")

    def test_comment_in_header(self):
        img = volio.read_pgm(b"P5\n# a comment\n1 1\n255\n\x7f")
        assert img.pixels[0, 0] == pytest.approx(127 / 255)

    def test_trailing_bytes_rejected(self):
        data = volio.write_pgm(Image2D(2, 1, np.array([[0.0, 1.0]])))
        assert volio.read_pgm(data).width == 2
        for extra in (b"\x00", b"\n", b"\x00" * 7):
            with pytest.raises(BadFormat, match="after the 2x1 raster"):
                volio.read_pgm(data + extra)

    @pytest.mark.parametrize("data", [
        b"P5\n+2 0_1\n2_55\n..", b"P5\n2 1\n+255\n..", b"P5\n\xd9\xa1 1\n255\n.",
        b"P5\n" + b"9" * 5000 + b" 1\n255\n.",
    ])
    def test_header_numbers_must_be_ascii_digits(self, data):
        with pytest.raises(BadFormat, match="decimal digits"):
            volio.read_pgm(data)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(BadFormat):
            volio.read_pgm(b"P5\n0 1\n255\n\x00")
        with pytest.raises(BadFormat):
            volio.read_pgm(b"P5\n2 -1\n255\n\x00\x00")

    def test_negative_vox_offset_rejected(self):
        payload = nifti_bytes((2, 2, 2), np.zeros(8), vox_offset=-4.0)
        with pytest.raises(Truncated):
            volio.parse_nifti(payload)

    @given(st.lists(st.floats(0.0, 1.0, width=32), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_error_bound(self, values):
        pix = np.array(values, dtype=np.float32).reshape(1, -1)
        img = Image2D(pix.shape[1], 1, pix)
        back = volio.read_pgm(volio.write_pgm(img))
        # 1e-7 slack: pixels are stored float32, ties land exactly on 1/510
        err = np.abs(back.pixels.astype(np.float64) - pix.astype(np.float64)).max()
        assert err <= 1.0 / 510.0 + 1e-7


# a header number spelled in decimal digits ("7", "07"), in a form only int() reads ("+7", "7_1"),
# or in one neither reads ("7.0", "0x7")
_NUMBERISH = st.builds(lambda n, form: form.format(n).encode("ascii"),
                       st.integers(-2, 30), st.sampled_from(["{}", "+{}", "0{}", "{}_1", "{}.0", "0x{}"]))


def _lenient_int(token: bytes) -> int:
    try:
        return int(token)
    except ValueError:
        return 0


class TestPgmProperties:
    """Any byte string parses or raises a CqbrainError; write-then-read is the identity."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=64),
                     st.tuples(st.sampled_from([b"P5\n", b"P5 ", b"P5#\n"]), st.binary(max_size=64))
                     .map(b"".join)))
    def test_arbitrary_bytes_parse_or_raise_a_package_error(self, data):
        try:
            img = volio.read_pgm(data)
        except CqbrainError:
            return
        assert img.pixels.shape == (img.height, img.width)

    @settings(max_examples=300, deadline=None)
    @given(_NUMBERISH, _NUMBERISH, st.sampled_from([b"255", b"0255", b"+255", b"2_55", b"255.0", b"254"]))
    @example(b"+2", b"0_1", b"2_55")
    def test_header_numbers_are_ascii_decimal_digits(self, w, h, maxval):
        width, height = _lenient_int(w), _lenient_int(h)
        # the raster is as long as int() reads the dimensions, so only the spelling can fail
        data = b"P5\n%s %s\n%s\n" % (w, h, maxval) + bytes(max(width, 1) * max(height, 1))
        if (w.isdigit() and h.isdigit() and maxval.isdigit() and width >= 1 and height >= 1
                and int(maxval) == 255):
            img = volio.read_pgm(data)
            assert (img.width, img.height) == (width, height)
        else:
            with pytest.raises(BadFormat):
                volio.read_pgm(data)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12))))
    def test_write_then_read_is_the_identity_on_uint8_rasters(self, raster):
        height, width = raster.shape
        img = Image2D(width, height, raster.astype(np.float32) / np.float32(255.0))
        data = volio.write_pgm(img)
        assert data.endswith(raster.tobytes())
        back = volio.read_pgm(data)
        assert (back.width, back.height) == (width, height)
        assert back.pixels.tobytes() == img.pixels.tobytes()
