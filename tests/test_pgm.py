"""PGM reader/writer round trips and malformed-input rejection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capseq.pgm import PgmError, _tokens, read_pgm, write_pgm

from oracles import per_pixel_p2, scan_pgm_tokens


@st.composite
def grids(draw):
    """(grid, maxval): shapes 1-40 x 1-40 holding exact 0 and 1, rounding
    ties (k + 0.5) / maxval, values outside [0, 1] and anything between."""
    maxval = draw(st.sampled_from([1, 255, 65535]))
    ties = st.integers(0, maxval - 1).map(lambda k: (k + 0.5) / maxval)
    values = st.one_of(st.sampled_from([0.0, 1.0]), ties, st.floats(-0.5, 1.5))
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    return draw(arrays(np.float64, shape, elements=values)), maxval


class TestWriteRead:
    def test_p2_round_trip(self, tmp_path):
        grid = np.linspace(0, 1, 12).reshape(3, 4)
        path = tmp_path / "img.pgm"
        write_pgm(path, grid)
        pixels, maxval = read_pgm(path)
        assert maxval == 255
        assert pixels.shape == (3, 4)
        np.testing.assert_allclose(pixels / 255, grid, atol=1 / 255)

    def test_p5_binary(self, tmp_path):
        values = np.arange(6, dtype=np.uint8).reshape(2, 3)
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + values.tobytes())
        pixels, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(pixels, values)

    def test_p5_sixteen_bit(self, tmp_path):
        values = np.array([[300, 500]], dtype=">u2")
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 1\n1000\n" + values.tobytes())
        pixels, maxval = read_pgm(path)
        assert maxval == 1000
        np.testing.assert_array_equal(pixels, [[300, 500]])

    def test_p5_at_the_largest_maxval(self, tmp_path):
        path = tmp_path / "top.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n\xff\xff\x00\x02")
        pixels, maxval = read_pgm(path)
        assert maxval == 65535
        np.testing.assert_array_equal(pixels, [[65535, 2]])

    @given(st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\x1c",
                                     b"\x85", b"\xa0", b"#", b"7", b"P"]), max_size=40))
    def test_tokens_equal_a_byte_scan(self, pieces):
        # includes bytes that str.isspace() accepts but bytes.isspace() does not
        data = b"".join(pieces)
        assert list(_tokens(data)) == scan_pgm_tokens(data)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# a comment\n2 2\n255\n0 1\n2 3\n")
        pixels, _ = read_pgm(path)
        np.testing.assert_array_equal(pixels, [[0, 1], [2, 3]])


class TestRaster:
    @given(case=grids())
    def test_bytes_equal_per_pixel_reference(self, tmp_path_factory, case):
        grid, maxval = case
        path = tmp_path_factory.mktemp("raster") / "img.pgm"
        write_pgm(path, grid, maxval)
        assert path.read_bytes() == per_pixel_p2(grid, maxval)

    def test_infinities_clip_to_the_range(self, tmp_path):
        grid = np.array([[np.inf, 0.5, -np.inf]])
        write_pgm(tmp_path / "inf.pgm", grid)
        assert (tmp_path / "inf.pgm").read_bytes() == per_pixel_p2(grid) == b"P2\n3 1\n255\n255 128 0\n"

    @pytest.mark.parametrize("shape, maxval", [((3, 4), 255), ((17, 5), 65535), ((1, 9), 1)])
    def test_comment_path_reads_the_fast_path_values(self, tmp_path, shape, maxval):
        grid = np.random.default_rng(maxval).random(shape)
        plain = tmp_path / "plain.pgm"
        write_pgm(plain, grid, maxval)
        *header, raster = plain.read_bytes().split(b"\n", 3)
        commented = tmp_path / "commented.pgm"
        commented.write_bytes(b"\n".join(header) + b"\n# raster follows\n"
                              + raster.replace(b"\n", b" # end of row\n"))
        fast, slow = read_pgm(plain), read_pgm(commented)
        assert fast[1] == slow[1] == maxval
        assert fast[0].dtype == slow[0].dtype and np.array_equal(fast[0], slow[0])

    @pytest.mark.parametrize("comment", [b"", b"# note\n"])
    def test_sample_count_message_same_on_both_paths(self, tmp_path, comment):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P2\n2 2\n255\n" + comment + b"0 1 2\n")
        with pytest.raises(PgmError, match=r"expected 4 samples, found 3$"):
            read_pgm(path)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P7\n1 1\n255\n0\n")
        with pytest.raises(PgmError, match="magic"):
            read_pgm(path)

    def test_sample_count_mismatch(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_text("P2\n2 2\n255\n0 1 2\n")
        with pytest.raises(PgmError, match="samples"):
            read_pgm(path)

    def test_sample_above_maxval(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_text("P2\n1 1\n10\n11\n")
        with pytest.raises(PgmError, match="maxval"):
            read_pgm(path)

    @pytest.mark.parametrize("maxval", [65536, 70000])
    @pytest.mark.parametrize("magic, raster", [("P2", b"0 1\n"), ("P5", b"\x00\x01\x00\x02")],
                             ids=["P2", "P5"])
    def test_maxval_past_the_pgm_limit(self, tmp_path, magic, raster, maxval):
        # the P5 raster holds two-byte samples, as such a header would be read
        path = tmp_path / "wide.pgm"
        path.write_bytes(f"{magic}\n2 1\n{maxval}\n".encode() + raster)
        with pytest.raises(PgmError, match=f"maxval {maxval} exceeds"):
            read_pgm(path)

    @pytest.mark.parametrize("maxval", [65536, 70000])
    def test_write_rejects_maxval_past_the_pgm_limit(self, tmp_path, maxval):
        with pytest.raises(PgmError, match=f"got {maxval}"):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), maxval)
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("comment", ["", "# note\n"])
    @pytest.mark.parametrize("samples", ["-3 7", "+7 3", "1_0 2", "0x1 2", "4 x"])
    def test_p2_sample_not_unsigned_decimal(self, tmp_path, samples, comment):
        path = tmp_path / "signed.pgm"
        path.write_bytes(f"P2\n2 1\n255\n{comment}{samples}\n".encode())
        with pytest.raises(PgmError, match="unsigned decimal"):
            read_pgm(path)

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(PgmError, match="raster"):
            read_pgm(path)

    def test_write_rejects_non_2d(self, tmp_path):
        with pytest.raises(PgmError):
            write_pgm(tmp_path / "x.pgm", np.zeros(5))

    @pytest.mark.parametrize("grid, maxval", [
        (np.zeros((0, 3)), 255), (np.array([[0.5, np.nan]]), 255), (np.zeros((2, 2)), 0),
    ])
    def test_write_rejects_what_no_pgm_can_hold(self, tmp_path, grid, maxval):
        with pytest.raises(PgmError):
            write_pgm(tmp_path / "x.pgm", grid, maxval)
        assert not (tmp_path / "x.pgm").exists()

