"""The three file readers give a result or a GfmpbeError on any input.

parse_atoms takes any text, import_interface and read_field_binary any
bytes.  A raw IndexError, ValueError, UnicodeDecodeError or a numpy warning
fails the property, because warnings are errors here.  Besides free text and
bytes, each reader gets inputs built near its format (numbers, directive
lines, edits of a valid document, a header with any shape), so that the
checks behind the first token are reached too.  The examples are
derandomized: every run checks the same inputs.
"""

import math
import struct
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gfmpbe.errors import GfmpbeError
from gfmpbe.grid import read_field_binary
from gfmpbe.molecule import parse_atoms
from gfmpbe.surface import import_interface

FUZZ = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_number = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 20).map(str),
    st.sampled_from(["1e400", "-1e400", "nan", "-0", "1e308", "-1e308", "1_0"]),
)
_token = st.one_of(
    _number,
    st.sampled_from(["1*-1", "3*1", "4*1", "0*1", "x", "y", "z", "#"]),
    st.text(max_size=4),
)
_tokens = st.lists(_token, max_size=11).map(" ".join)
_record = st.lists(_number, min_size=5, max_size=5).map(" ".join)
_atom_lines = st.lists(st.one_of(_tokens, _record), max_size=6).map("\n".join)

# A valid interface document: the x = 0 plane of a 4^3 grid inside.
_DOC = (
    ["box 0 0 0 3 3 3", "n 4 4 4", "h 1.0", "convention native"]
    + [f"row {j} {k} 1*-1 3*1" for k in range(4) for j in range(4)]
    + [f"cross x 0 {j} {k} 0.25" for k in range(4) for j in range(4)]
)
_DIRECTIVES = ["box", "n", "h", "convention", "row", "cross"]
_directive = st.tuples(st.sampled_from(_DIRECTIVES), _tokens).map(" ".join)


@st.composite
def _edited_doc(draw) -> bytes:
    """_DOC with a few lines replaced, inserted or deleted."""
    lines = list(_DOC)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind != "insert" and at < len(lines):
            del lines[at]
        if kind != "delete":
            lines.insert(at, draw(_directive))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def _field_file(draw) -> bytes:
    """A binary field header with any shape, h and origin, and a body that
    is random or exactly the size the header asks for."""
    dims = st.one_of(st.integers(-2, 6), st.integers(-(2**63), 2**63 - 1))
    shape = draw(st.tuples(dims, dims, dims))
    numbers = draw(st.lists(st.floats(), min_size=4, max_size=4))
    body = draw(st.binary(max_size=64))
    if draw(st.booleans()) and all(0 <= n <= 6 for n in shape):
        body = struct.pack(f"<{math.prod(shape)}d", *[0.5] * math.prod(shape))
    return struct.pack("<3q4d", *shape, *numbers) + body


def _reads(read, *args) -> None:
    """read(*args), where a GfmpbeError passes and a warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            read(*args)
        except GfmpbeError:
            pass


@FUZZ
@given(text=st.one_of(st.text(), _atom_lines))
@example(text="1e308 0 0 1 1\n-1e308 0 0 1 1")  # centres whose offset overflows
def test_parse_atoms_on_any_text(text):
    _reads(parse_atoms, text)


@FUZZ
@given(data=st.one_of(st.binary(), _edited_doc()))
def test_import_interface_on_any_bytes(tmp_path, data):
    path = tmp_path / "iface.txt"
    path.write_bytes(data)
    _reads(import_interface, path)


@FUZZ
@given(data=st.one_of(st.binary(max_size=128), _field_file()))
def test_read_field_binary_on_any_bytes(tmp_path, data):
    path = tmp_path / "field.bin"
    path.write_bytes(data)
    _reads(read_field_binary, path)
