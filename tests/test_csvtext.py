"""The vectorised CSV float text is byte-for-byte C ``%.17g``."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtpme import csvtext


def written(columns):
    return "".join(csvtext.blocks([columns]))


def reference(columns):
    return "".join(
        ",".join(format(x + 0.0, ".17g") for x in row) + "\n"
        for row in zip(*(col.tolist() for col in columns)))


def as_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=2000, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_64_bit_pattern_prints_as_percent_17g(bits):
    # every double: subnormals, NaN payloads and signalling NaNs included
    x = as_floats(bits)
    columns = [x, x[::-1].copy()]
    assert written(columns).splitlines() == reference(columns).splitlines()
    assert csvtext.float_text(x).tolist() == [b"%.17g" % (v + 0.0) for v in x.tolist()]


def powers_of_ten_and_neighbours():
    values = []
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    return values


EDGES = [
    # the fixed/scientific boundaries at X = -5/-4 and 16/17
    1e-5, 9.9999999999999991e-06, 1.0000000000000001e-05, 1e-4,
    9.9999999999999991e-05, 0.00010000000000000002, 0.00099999999999999999,
    1e16, 9999999999999998.0, 10000000000000002.0, 1e17, 99999999999999984.0,
    100000000000000016.0, 12345678901234567.0, 123456789012345678.0,
    # ties of the 17th digit, rounded half to even by CPython
    1234567890123456.25, 1234567890123456.75, 0.5, 2.5,
    # the edges of the significand and of the exponent range
    float(2**53 - 1), float(2**53), float(2**53 + 2), 5e-324, 1e-323,
    2.2250738585072014e-308, 2.2250738585072009e-308, 1.7976931348623157e308,
    np.nextafter(1e-290, 0.0), 1e-290, np.nextafter(1e-290, 1.0),
    0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 0.1, 1 / 3, 2 / 3, 100.0, 123.456,
] + powers_of_ten_and_neighbours()


def test_edge_values_print_as_percent_17g():
    x = np.array(EDGES + [-v for v in EDGES])
    assert written([x]).splitlines() == reference([x]).splitlines()


def test_ties_round_half_to_even():
    x = np.array([1234567890123456.25, 1234567890123456.75])
    assert written([x]) == "1234567890123456.2\n1234567890123456.8\n"


def test_mixed_columns_and_wide_rows():
    # more columns than one block's bytes hold at the default block rows
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3 * csvtext._BLOCK_ROWS + 5, 12)) * 10.0 ** rng.integers(
        -30, 30, (1, 12))
    labels = np.array(["M", "O", "B", "", "abc"])[rng.integers(0, 5, x.shape[0])]
    columns = [labels, *x.T, labels.astype("S")]
    expected = "".join(
        ",".join([label] + [format(v, ".17g") for v in row] + [label]) + "\n"
        for label, row in zip(labels.tolist(), x.tolist()))
    assert written(columns) == expected


def test_parts_stream_through_one_buffer():
    # a table given in parts prints as the same table in one piece; the
    # parts' sizes straddle the block rows, as a streamed table's do
    rng = np.random.default_rng(11)
    x = rng.standard_normal(3 * csvtext._BLOCK_ROWS + 7)
    labels = np.array([b"M", b"O", b"B"])[rng.integers(0, 3, x.size)]
    cuts = [0, 5000, 5001, 9000, x.size]
    parts = [[labels[a:b], x[a:b]] for a, b in zip(cuts, cuts[1:])]
    assert "".join(csvtext.blocks(parts)) == written([labels, x])


def test_a_part_of_full_width_texts_after_short_ones():
    # each part's texts take their own masks: a part whose texts all have
    # the column's full width keeps none of the part before it
    short = np.array([b"0", b"1"] * 3, dtype="S3")
    full = np.array([b"0.5", b"1.5"] * 3)
    x = np.arange(12.0)
    parts = [[short, x[:6]], [full, x[6:]], [short, x[:6]]]
    texts = np.concatenate([short, full, short])
    assert "".join(csvtext.blocks(parts)) == written([texts, np.concatenate([x, x[:6]])])
    assert "".join(csvtext.blocks(parts)).splitlines()[6] == "0.5,6"


def test_parts_keep_the_text_width_of_the_first():
    parts = [[np.array([b"M"]), np.ones(1)], [np.array([b"MO"]), np.ones(1)]]
    with pytest.raises(ValueError, match="text column 0 is 2 bytes wide"):
        "".join(csvtext.blocks(parts))


def test_float_text_is_percent_17g_at_the_widest_width():
    x = np.concatenate([[0.0, 5e-324, 2.2250738585072009e-308, 1e308, -1e308],
                        np.linspace(0.0, 5.0, 1000)])
    expected = np.array([("%.17g" % v).encode("ascii") for v in x.tolist()])
    text = csvtext.float_text(x)
    assert text.dtype == expected.dtype
    assert text.tobytes() == expected.tobytes()


def test_float_text_makes_no_object_per_value():
    # the result, one block's temporaries and the joined copy of the blocks
    x = np.linspace(0.0, 5.0, 2 * 10**5)
    csvtext.float_text(x[:10])  # the lookup tables
    tracemalloc.start()
    try:
        text = csvtext.float_text(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * text.nbytes + 2**20


def test_float_text_holds_a_wide_axis_once():
    # each block is written into the one result; joining per-block arrays
    # held the text twice
    x = np.linspace(0.0, 5.0, 10**6)
    csvtext.float_text(x[:10])
    tracemalloc.start()
    try:
        text = csvtext.float_text(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text[::9973].tolist() == [b"%.17g" % v for v in x[::9973].tolist()]
    assert peak <= csvtext._LONGEST * x.size + 4 * 2**20
