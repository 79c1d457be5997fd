"""The table and SMC load path without numpy, against the numpy calls it replaced, bit for bit.

``harness.read_table`` is one Python reader for every table file.
``numpy_read_table`` below is the numpy-only reader it replaced, verbatim but
for its name: on every file numpy reads, the two must return the same rows,
and on every file numpy refuses, ``read_table`` must refuse naming the file.
``ReferenceTrajectory`` unwraps its yaw column with a loop of ``np.unwrap``'s
steps, and ``SmcModel`` inverts a diagonal M as reciprocals; both must give
numpy's bits, signed zeros and nan included. ``harness.format_table`` writes
the grammar ``read_table`` reads, so every table it writes is read back.
"""

import gzip
import math
import struct
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ionblimp import harness
from ionblimp.harness import read_table
from ionblimp.smc import ReferenceTrajectory, SmcModel

PROPERTY = settings(derandomize=True, database=None, max_examples=500, deadline=None)


def numpy_read_table(path) -> np.ndarray:
    """Rows of a plain-text numeric table with ``#`` comments; a failure names the file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's empty-input warning; raised below
            rows = np.loadtxt(path, comments="#", ndmin=2)
        if not rows.size:
            raise ValueError("no data rows")
    except OSError as exc:  # numpy's own message for a missing file repeats the path
        raise ValueError(f"{path}: {exc.strerror or 'not found'}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return rows


def _outcome(read, path):
    """The rows as a repr (so -0.0 and nan are compared exactly), or the error text."""
    try:
        rows = read(path)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(rows, np.ndarray):
        rows = tuple(map(tuple, rows.tolist()))
    assert all(type(value) is float for row in rows for value in row)
    return "rows", repr(rows)


def _bits(values):
    return [struct.pack("<d", value) for value in values]


# --- read_table ------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:+.6e}"),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.3E}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "-0", "+0.0", ".5", "5.", "-.5e-3", "1e308", "1e309", "-1e400", "1e-330", "00012"]),
)
# Each edit may take a file out of the plain grammar. float() takes some of these tokens that numpy refuses
# ("1_0", "１"), both take some that format_table never writes ("nan", "\v"), and some neither takes.
ODD_TOKENS = ["1_0", "2e1_0", "nan", "-Infinity", "１", "1e", "--1", "0x1", "1\x00", "1.2.3"]
ODD_SEPARATORS = ["\v", "\f", "\x1c", "\x1f", "\r", "\xa0", ",", "\x00", "\v\t"]
ODD_ENDS = ["\r\n", "\r", "\v\n", "\x1c\n", "\f\n"]
ODD_COMMENTS = ["# \r 5", "#\r\n", "# é", "# ５", "#\x1c", "#\v1", "# \x00"]
ODD_BYTES = [b"\xe9", b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]  # none of them UTF-8


@st.composite
def table_files(draw):
    """The bytes of a file in format_table's plain grammar and, in most draws, one or two edits that may take it
    out; and whether it is left unedited with at least one row.

    Each line is [lead, tokens, separators, tail, end]; a line without tokens is a blank or comment line. A "bom"
    edit starts the file with a byte order mark, an "undecodable" edit puts a byte that is not UTF-8 anywhere.
    """
    width = draw(st.integers(1, 5))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        tokens = draw(st.lists(NUMBERS, min_size=width, max_size=width)) if kind == "row" else []
        separators = [draw(st.sampled_from([" ", "\t", "  ", " \t "])) for _ in tokens[1:]]
        tail = draw(st.sampled_from(["", " ", " # t x y psi", "#"])) if tokens else draw(st.sampled_from([
            "", "   ", "\t", "# " + draw(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8))]))
        lines.append([draw(st.sampled_from(["", " ", "\t"])), tokens, separators, tail, "\n"])
    rows = [line for line in lines if line[1]]
    edits = draw(st.lists(st.sampled_from(["token"] * 3 + ["separator"] * 2 + [
        "end", "comment", "ragged", "no rows", "blank", "bom", "undecodable"]), max_size=2))
    for edit in edits:
        line = draw(st.sampled_from(rows or lines))
        if edit == "token" and line[1]:
            line[1][draw(st.integers(0, len(line[1]) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif edit == "separator" and line[2]:
            line[2][draw(st.integers(0, len(line[2]) - 1))] = draw(st.sampled_from(ODD_SEPARATORS))
        elif edit == "end":
            line[4] = draw(st.sampled_from(ODD_ENDS))
        elif edit == "comment":
            line[3] = draw(st.sampled_from(ODD_COMMENTS))
        elif edit == "ragged" and line[1]:
            if len(line[1]) > 1 and draw(st.booleans()):
                del line[1][-1], line[2][-1]
            else:
                line[1].append(draw(NUMBERS))
                line[2].append(" ")
        elif edit == "no rows":
            for line in rows:
                line[1], line[2] = [], []
        elif edit == "blank":
            lines.insert(draw(st.integers(0, len(lines))), ["", [], [], draw(st.sampled_from(ODD_SEPARATORS)), "\n"])
    text = "".join(lead + "".join(t + sep for t, sep in zip(tokens, separators)) + "".join(tokens[len(separators):])
                   + tail + end for lead, tokens, separators, tail, end in lines)
    if draw(st.booleans()):
        text = text[:-1] if text.endswith("\n") else text  # no line end after the last line
    data = ("\ufeff" * ("bom" in edits) + text).encode("utf-8")
    if "undecodable" in edits:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(ODD_BYTES)) + data[at:]
    return data, not edits and bool(rows)


@settings(PROPERTY, max_examples=600)
@given(drawn=table_files())
def test_read_table_is_numpys_reader(drawn, tmp_path_factory):
    # The same rows wherever numpy reads the file, and a refusal naming the file wherever numpy refuses it.
    data, plain = drawn
    path = tmp_path_factory.getbasetemp() / "table.txt"
    path.write_bytes(data)
    ours, numpys = _outcome(read_table, path), _outcome(numpy_read_table, path)
    if numpys[0] == "rows" or plain:
        assert ours == numpys
    else:
        assert ours[0] == "error" and ours[1].startswith(f"{path}: "), ours


# Finite floats, with the ends of the range drawn often: signed zeros, subnormals and exponents near +-308.
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                   st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
                   st.floats(1e300, 1.7976931348623157e308), st.floats(-1.7976931348623157e308, -1e300))


@PROPERTY
@given(header=st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
       rows=st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(*[FINITE] * n), min_size=1, max_size=6)))
def test_format_table_writes_the_plain_grammar_read_table_reads(header, rows, tmp_path_factory):
    # The one table writer and its neighbour reader agree: what format_table writes is read back bit for bit.
    path = tmp_path_factory.getbasetemp() / "written.txt"
    path.write_bytes(harness.format_table(header, rows).encode("ascii"))
    assert _outcome(read_table, path) == ("rows", repr(tuple(rows)))


def test_read_table_names_a_file_it_cannot_open(tmp_path):
    for path in (tmp_path / "missing.txt", str(tmp_path / "missing.txt")):
        assert _outcome(read_table, path) == ("error", f"{path}: no such file or directory")
    assert _outcome(read_table, tmp_path) == ("error", f"{tmp_path}: is a directory")


def test_read_table_reads_a_gz_suffix_as_text_and_refuses_a_gzip_file(tmp_path):
    # No suffix decompresses: a table named .gz is read as the text it holds, and gzip's bytes are not UTF-8.
    path = tmp_path / "table.gz"
    path.write_text("0 1\n", encoding="ascii")
    assert _outcome(read_table, path) == ("rows", repr(((0.0, 1.0),)))
    path.write_bytes(gzip.compress(b"0 1\n"))
    assert _outcome(read_table, path) == ("error", f"{path}: line 1: not UTF-8")


# --- the yaw unwrap -----------------------------------------------------------------

STEPS = st.one_of(
    st.sampled_from([math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi, -3 * math.pi, 0.0, -0.0]),
    st.integers(-20, 20).map(lambda k: 2 * k * math.pi),
    st.integers(-20, 20).map(lambda k: (2 * k + 1) * math.pi),
    st.sampled_from([math.pi, -math.pi]).map(lambda x: math.nextafter(x, 0.0)),  # ddmod just above -pi
    st.sampled_from([math.pi, -math.pi]).map(lambda x: math.nextafter(x, 2 * x)),
    st.floats(-10.0, 10.0),
    st.floats(-1e300, 1e300),
)


@st.composite
def yaw_columns(draw):
    """2-8 yaws: a start near 0, near +-pi or near 1e300, then steps of exactly +-pi, 2k pi, and beside them."""
    psi = [draw(st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi]), st.floats(-1e300, 1e300)))]
    for _ in range(draw(st.integers(1, 7))):
        step = draw(STEPS)
        nxt = draw(st.sampled_from([psi[-1] + step, step, -0.0]))  # the sum, a bare step, or -0.0
        psi.append(nxt if abs(nxt) <= 1e300 else math.copysign(1e300, nxt))
    return psi


@PROPERTY
@given(psi=yaw_columns())
def test_unwrap_is_numpys_unwrap(psi):
    reference = ReferenceTrajectory(times=[float(i) for i in range(len(psi))], poses=[(0.0, 0.0, p) for p in psi])
    assert _bits(p for _, _, p in reference.poses) == _bits(np.unwrap(psi).tolist())


# --- M^-1 of a diagonal M -------------------------------------------------------

DIAGONAL = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(-1e3, -1e-3),
    st.floats(-1e200, 1e200).filter(lambda x: x != 0.0),
    st.sampled_from([5e-324, -5e-324, 1e-310, 2.0**-1022, 1e308, -1e308]),  # 1 / x overflows, or nearly
)


@PROPERTY
@given(diagonal=st.tuples(DIAGONAL, DIAGONAL, DIAGONAL),
       zeros=st.lists(st.sampled_from([0.0, -0.0]), min_size=6, max_size=6))
def test_diagonal_m_inverse_is_lapacks(diagonal, zeros):
    zero = iter(zeros)
    m = tuple(tuple(diagonal[i] if i == j else next(zero) for j in range(3)) for i in range(3))
    with np.errstate(all="ignore"):  # det overflows on the widest draws
        det = np.linalg.det(m)
    if 1e-16 < abs(det) < 1e-14:  # numpy's det is exp(sum of logs): it may fall either side of the bound
        return
    try:
        model = SmcModel(mass_matrix=m, aero_matrix=((0.0,) * 3,) * 3)
    except ValueError as exc:
        assert str(exc) == "mass_matrix is singular" and abs(det) < 1e-15
        return
    assert abs(det) >= 1e-15
    with np.errstate(all="ignore"):
        expected = np.linalg.inv(m).tolist()
    assert _bits(sum(model._m_inv, ())) == _bits(sum(map(tuple, expected), ()))


def test_a_non_diagonal_m_is_inverted_by_lapack():
    model = SmcModel.from_components(mass=0.3, inertia_z=0.01, added_mass_x=0.05, cg_x=0.02, cg_y=-0.01)
    assert model._m_inv == tuple(map(tuple, np.linalg.inv(model.mass_matrix).tolist()))
