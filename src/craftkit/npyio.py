"""Reader and writer for NPY files, version 1.0 only.

Supported payloads are little-endian float32/float64 in C order, with 1-D,
2-D, or 4-D shapes; 1-D data loads as a single-row matrix and everything is
widened to float64 in memory. Anything else is rejected loudly instead of
being coerced: wrong magic, a malformed header or a payload of the wrong
length is a FormatError, a declared feature outside this subset (version,
dtype, Fortran order, rank) is an UnsupportedError, and non-finite or empty
payloads are a DataError. load_npy_rows reads selected rows, load_npy all
of them through it, and npy_shape a file's shape after the same checks.
NpyBlockWriter writes one file block by block, and save_npy writes a
whole stack through it as one block. save_json writes the JSON sidecars
kept next to them, load_json reads them, and load_record also checks the
keys and value types of one; a sidecar that does not parse, or whose top
level, key set or value types are wrong, is a DataError naming the file.
"""

import ast
import json
import math
import os
import stat

import numpy as np

from .errors import DataError, FormatError, UnsupportedError

_MAGIC = b"\x93NUMPY"
_DTYPES = ("<f4", "<f8")
_RANKS = (1, 2, 4)


def load_npy(path):
    """Load an NPY v1.0 file as a float64 matrix or 4-D tensor: load_npy_rows
    over every row."""
    return load_npy_rows(path, slice(None))


def load_npy_rows(path, rows):
    """Load the given rows of an NPY v1.0 file, as load_npy(path)[rows].

    rows is a 1-D integer array or a slice of the first axis, as numpy
    takes it. The header is parsed and the payload size it declares is
    checked against the file before anything sized from the header is
    allocated. A regular file's rows are then read straight into the
    returned array, one seek and one read per run of adjacent rows, so a
    float64 file is held once and a float32 file gets one widening copy.
    A pipe cannot seek or report its size, so its payload is read whole,
    checked, and its rows copied into the array. Only the rows read are
    checked for NaN or infinity.
    """
    with open(path, "rb") as fh:
        dtype, shape, raw = _read_header(fh, path)
        runs = _row_runs(shape[0], rows)
        payload = np.empty((sum(n for *_, n in runs),) + shape[1:],
                           dtype if raw is None else np.float64)
        if raw is None:
            data_start = fh.tell()
            row_bytes = math.prod(shape[1:]) * dtype.itemsize
            for at, first, n in runs:
                fh.seek(data_start + first * row_bytes)
                _read_into(fh, path, payload[at:at + n])
        else:
            source = np.frombuffer(raw, dtype).reshape(shape)
            for at, first, n in runs:
                payload[at:at + n] = source[first:first + n]

    arr = payload.astype(np.float64, copy=False)
    _check_finite(arr, f"{path}: payload")
    return arr


def _row_runs(count, rows):
    """(position in the result, first row, length) of each run of adjacent
    rows that rows selects from count rows; a slice of step 1 is one run
    and builds no index array."""
    start, stop, step = rows.indices(count) if isinstance(rows, slice) else (0, 0, 0)
    if step == 1:
        return [(0, start, stop - start)] if stop > start else []
    order = np.arange(count)[rows].reshape(-1)
    bounds = np.flatnonzero(np.diff(order, prepend=-2) != 1).tolist() + [len(order)]
    return [(a, int(order[a]), b - a) for a, b in zip(bounds, bounds[1:])]


def npy_shape(path):
    """The shape of an NPY v1.0 file, as load_npy would return it (1-D as
    one row), after load_npy's checks of the header and the file size;
    no payload is read from a regular file."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[1]


def _read_header(fh, path):
    """Parse the header of the NPY file open as fh and check its size.

    Returns (dtype, shape, raw), shape as load_npy returns the array (a
    1-D payload as one row). A regular file is left at the payload's start
    with raw None; a pipe's payload is read whole into raw.
    """
    prefix = fh.read(10)
    if len(prefix) < 10 or prefix[:6] != _MAGIC:
        raise FormatError(f"{path}: not an NPY file (bad magic)")
    if prefix[6:8] != b"\x01\x00":
        raise UnsupportedError(f"{path}: NPY version {prefix[6]}.{prefix[7]}, "
                               f"only 1.0 supported")
    data_start = 10 + int.from_bytes(prefix[8:10], "little")
    text = fh.read(data_start - 10)
    try:
        header = ast.literal_eval(text.decode("latin1"))
        descr, fortran_order, shape = (header[k] for k in ("descr", "fortran_order", "shape"))
    except (ValueError, TypeError, KeyError, SyntaxError, MemoryError,
            RecursionError) as exc:
        raise FormatError(f"{path}: malformed header") from exc

    if descr not in _DTYPES:
        raise UnsupportedError(f"{path}: dtype {descr!r}, only <f4/<f8 supported")
    if fortran_order is True:
        raise UnsupportedError(f"{path}: Fortran-order payloads are not supported")
    if fortran_order is not False:
        raise FormatError(f"{path}: malformed fortran_order flag")
    if not (isinstance(shape, tuple) and all(type(d) is int and d >= 0 for d in shape)):
        raise FormatError(f"{path}: malformed shape {shape!r}")
    if len(shape) not in _RANKS:
        raise UnsupportedError(f"{path}: rank-{len(shape)} array, only 1/2/4-D supported")

    dtype = np.dtype(descr)
    count = math.prod(shape)
    if count == 0:
        raise DataError(f"{path}: empty arrays are not supported")
    expected = data_start + count * dtype.itemsize
    info = os.fstat(fh.fileno())
    # a pipe cannot report its size, so its payload is read first
    raw = None if stat.S_ISREG(info.st_mode) else fh.read()
    size = info.st_size if raw is None else 10 + len(text) + len(raw)
    if size != expected:
        raise FormatError(f"{path}: file is {size} bytes, expected {expected}")
    return dtype, ((1, shape[0]) if len(shape) == 1 else shape), raw


def _read_into(fh, path, payload):
    """Fill the C-ordered array payload from fh's current position."""
    if fh.readinto(payload.data.cast("B")) != payload.nbytes:
        raise FormatError(f"{path}: file shrank while it was read")


def load_json(path, kind):
    """Parse a JSON sidecar whose top level must be a ``kind`` (dict or list)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        value = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(value, kind):
        raise DataError(f"{path}: top level is {type(value).__name__}, "
                        f"expected {kind.__name__}")
    return value


def save_json(value, path):
    """Write a JSON sidecar: indent 2, sorted keys, trailing newline. The
    text is encoded first, so a value JSON cannot encode leaves no file."""
    text = json.dumps(value, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_record(path, required, optional=None):
    """Parse a JSON object sidecar whose keys must hold values of given types.

    required and optional map keys to tuples of types as isinstance takes
    them, except that true and false match bool alone. A missing required
    key, or a value of another type, raises DataError naming file and key.
    """
    record = load_json(path, dict)
    for key, kinds in {**required, **(optional or {})}.items():
        value = record.get(key)
        if key not in record:
            if key in required:
                raise DataError(f"{path} lacks the key {key!r}")
        elif not isinstance(value, kinds) or (type(value) is bool and bool not in kinds):
            raise DataError(f"{path}: the key {key!r} holds {type(value).__name__} "
                            f"{value!r}, expected {' or '.join(k.__name__ for k in kinds)}")
    return record


def save_npy(arr, path):
    """Write a matrix or 4-D tensor as NPY v1.0, float64, C order.

    1-D input is saved as a single-row matrix. An array of another rank is
    a ValueError, and an empty or non-finite one a DataError, so every file
    written here loads again through load_npy. Both are checked before the
    file is opened, so a rejected array leaves an existing file as it was.
    The array is then written as NpyBlockWriter's one block, and a round
    trip reproduces the float64 data bit-exactly.
    """
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    writer = NpyBlockWriter(path, a.shape)
    _check_finite(a)
    with writer:
        writer.write(a)


def _check_shape(shape):
    if len(shape) not in (2, 4):
        raise ValueError(f"only 2-D or 4-D arrays can be saved, got shape {shape}")
    if math.prod(shape) == 0:
        raise DataError("empty arrays are not supported")


def _check_finite(a, what="payload"):
    # min and max propagate NaN and reach any infinity without allocating
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise DataError(f"{what} contains NaN or Inf")


class NpyBlockWriter:
    """Write a 2-D or 4-D float64 stack as NPY v1.0, a block of rows at a time.

    shape is the whole stack's; entering the writer opens path and writes
    numpy's v1.0 header for it, and each write appends the next rows, so
    the file holds numpy's own v1.0 bytes for the whole stack. shape and
    every block get save_npy's checks: a rank other than 2 or 4, or a
    block whose rows do not continue the stack, is a ValueError, and an
    empty shape or a non-finite block a DataError. Leaving the writer on an
    exception, or with another row count than shape declares (a ValueError),
    removes the file, so only a whole stack is ever left at path.
    """

    def __init__(self, path, shape):
        self.path = path
        self.shape = tuple(int(d) for d in shape)
        _check_shape(self.shape)
        self.rows = 0

    def __enter__(self):
        self._fh = open(self.path, "wb")
        np.lib.format.write_array_header_1_0(
            self._fh, {"descr": "<f8", "fortran_order": False, "shape": self.shape})
        return self

    def write(self, block):
        a = np.asarray(block, dtype="<f8")
        if a.shape[1:] != self.shape[1:]:
            raise ValueError(f"a block of shape {a.shape} does not continue "
                             f"a stack of shape {self.shape}")
        if self.rows + len(a) > self.shape[0]:
            raise ValueError(f"{self.rows + len(a)} rows for a stack of {self.shape[0]}")
        _check_finite(a)
        self._fh.write(np.ascontiguousarray(a).data)
        self.rows += len(a)

    def __exit__(self, exc_type, exc, tb):
        self._fh.close()
        short = exc_type is None and self.rows != self.shape[0]
        if exc_type is not None or short:
            os.unlink(self.path)
        if short:
            raise ValueError(f"{self.rows} rows written for a stack of {self.shape[0]}")
