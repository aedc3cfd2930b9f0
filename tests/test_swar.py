"""Property tests of the EventStore's SWAR helpers (present, at_least,
seen_flags in oracles) against a per-field reference.  Field p of a
packed int is bits p*F to p*F + F - 1, as in a reach or a vote vector."""

from hypothesis import given, settings, strategies as st

from oracles import at_least, packed_store, packing, present, seen_flags

WIDTHS = (8, 16, 32, 64)
# 8 fields before the first doubling of the fields, up to 32 after the
# second
MAX_FIELDS = 24
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def pack(fields, width):
    return sum(x << p * width for p, x in enumerate(fields))


def unpack_low(flags, width, n):
    """Bit 0 of each of flags' first n fields; a set bit anywhere else is an
    error."""
    assert flags >> n * width == 0
    out = [flags >> p * width & 1 for p in range(n)]
    assert flags == pack(out, width)
    return out


def field_value(width):
    full = (1 << width) - 1
    return st.one_of(
        st.just(0), st.just(full), st.just(1 << width - 1),
        st.integers(0, width - 1).map(lambda k: 1 << k),
        st.integers(0, full),
    )


@st.composite
def fields_of(draw, value=field_value):
    width = draw(st.sampled_from(WIDTHS))
    n = draw(st.integers(1, MAX_FIELDS))
    return width, draw(st.lists(value(width), min_size=n, max_size=n))


@PROPERTY
@given(fields_of())
def test_present_flags_nonzero_fields(case):
    width, fields = case
    store = packed_store(width, len(fields))
    got = present(store, pack(fields, width))
    # the helpers answer for every field the store's constants cover
    fields += [0] * (packing(store).fields - len(fields))
    assert unpack_low(got, width, len(fields)) == [int(x != 0) for x in fields]


@PROPERTY
@given(fields_of(lambda w: st.integers(0, w)), st.data())
def test_at_least_compares_each_count(case, data):
    width, counts = case
    t = data.draw(st.integers(0, width))
    store = packed_store(width, len(counts))
    got = at_least(store, pack(counts, width), t)
    counts += [0] * (packing(store).fields - len(counts))
    assert unpack_low(got, width, len(counts)) == [int(c >= t) for c in counts]


@PROPERTY
@given(fields_of(), st.data())
def test_seen_flags_counts_unforked_creators(case, data):
    width, reach = case
    n = len(reach)
    full = (1 << width) - 1
    creators = data.draw(st.lists(st.integers(0, width - 1), min_size=n,
                                  max_size=n))
    forked = data.draw(st.one_of(
        st.just(0), st.integers(0, width - 1).map(lambda k: 1 << k),
        st.integers(0, full)))
    sm = data.draw(st.integers(1, width))
    store = packed_store(width, n)
    q = 3
    got = seen_flags(store, pack(reach, width), q,
                     pack([1 << c for c in creators], width), forked, sm)
    want = [int(not forked >> c & 1 and (x & ~forked).bit_count() >= sm)
            for x, c in zip(reach, creators)]
    fields = packing(store).fields
    want += [0] * (fields - n)
    assert unpack_low(got, width, fields) == want
