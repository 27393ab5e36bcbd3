"""Property tests: the version-4 member codec, container and segment writers.

Every member dtype a container stores comes back bitwise-equal, with
the same dtype and shape, through the codec alone and through a whole
write and read of a container or of a journal segment; and the byte
shuffle is a permutation, so one flipped stored bit is one flipped bit
of one value.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.durable import decode_segment, encode_segment
from repro.core.integrity import member_crc
from repro.core.tracefile import (
    _member,
    _open_container,
    atomic_savez,
    decode_member,
    encode_member,
    with_header,
)

DTYPES = ["<i1", "<i2", "<i4", "<i8", "|u1", "|b1", "<U1", "<U7"]

members = st.sampled_from(DTYPES).flatmap(
    lambda dt: hnp.arrays(
        np.dtype(dt),
        st.one_of(
            st.just(0),
            st.just(1),
            st.integers(min_value=0, max_value=300),
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=5),
            ),
        ),
    )
)


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.tobytes() == b.tobytes()
    )


@settings(max_examples=300, deadline=None)
@given(arr=members)
def test_codec_roundtrip_is_bitwise(arr):
    raw = encode_member(arr)
    assert len(raw) == arr.nbytes
    back = decode_member(raw, arr.dtype.str, list(arr.shape))
    assert same(back, arr)
    assert back.flags.writeable
    assert member_crc(back) == member_crc(arr)


def container_roundtrip(tmp_path, arrays, compress):
    path = tmp_path / "c.npz"
    atomic_savez(path, with_header(arrays, {}), compress=compress)
    zf, header = _open_container(path)
    with zf:
        return {name: _member(zf, header, name) for name in arrays}


def segment_roundtrip(tmp_path, arrays, compress):
    del tmp_path, compress  # segments are bytes, always stored
    crc = {name: member_crc(a) for name, a in arrays.items()}
    record = {"op": "seal", "seq": 3, "kind": "samples", "crc": crc}
    header, back = decode_segment(encode_segment(record, arrays))
    assert header == record
    assert list(back) == list(arrays)
    return back


@settings(max_examples=50, deadline=None)
@given(
    arrays=st.dictionaries(
        st.from_regex(r"m[a-z0-9_]{0,8}", fullmatch=True), members, max_size=6
    ),
    compress=st.booleans(),
    roundtrip=st.sampled_from([container_roundtrip, segment_roundtrip]),
)
def test_container_roundtrip_is_bitwise(
    tmp_path_factory, arrays, compress, roundtrip
):
    back = roundtrip(tmp_path_factory.mktemp("codec"), arrays, compress)
    for name, arr in arrays.items():
        assert same(back[name], arr)


@settings(max_examples=300, deadline=None)
@given(
    values=hnp.arrays(
        st.sampled_from([np.dtype(d) for d in ("<i2", "<i4", "<i8", "<u8")]),
        st.integers(min_value=1, max_value=200),
    ),
    data=st.data(),
)
def test_one_stored_bit_is_one_bit_of_one_value(values, data):
    raw = bytearray(encode_member(values))
    offset = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    raw[offset] ^= 1 << bit
    back = decode_member(bytes(raw), values.dtype.str, list(values.shape))
    diff = np.flatnonzero(back != values)
    assert len(diff) == 1
    flipped = back.view(np.uint8) ^ values.view(np.uint8)
    assert int(np.unpackbits(flipped).sum()) == 1
