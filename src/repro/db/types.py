"""Column data types for the relational substrate.

The engine is columnar: every column is stored as a NumPy array whose dtype
is determined by its declared :class:`DataType`.  The type system is small on
purpose — the paper's workloads only need integers, floats, strings and
booleans — but it is explicit about null handling and byte accounting because
the compression and zero-IO experiments reason about storage size.
"""

from __future__ import annotations

import enum
from typing import Any

import numpy as np

from repro.errors import TypeMismatchError

__all__ = ["DataType", "null_value", "is_null", "python_value"]


class DataType(enum.Enum):
    """Supported column data types.

    Each member knows its NumPy dtype, a sentinel used to represent NULL in
    the packed array, and its on-disk width in bytes (used by the simulated
    IO model and by the compression benchmarks).
    """

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    BOOL = "bool"

    # -- dtype mapping ------------------------------------------------------

    @property
    def numpy_dtype(self) -> np.dtype:
        """The NumPy dtype used for the packed column array."""
        if self is DataType.INT64:
            return np.dtype(np.int64)
        if self is DataType.FLOAT64:
            return np.dtype(np.float64)
        if self is DataType.BOOL:
            return np.dtype(np.bool_)
        return np.dtype(object)

    @property
    def byte_width(self) -> int:
        """Nominal storage width of one value in bytes.

        Strings are accounted at a nominal 16 bytes (pointer + short payload)
        which matches how the paper counts the LOFAR table at "ca. 11MB" for
        1.45M rows x 3 columns of 8-byte values: fixed-width accounting keeps
        the compression-ratio arithmetic transparent.
        """
        if self is DataType.STRING:
            return 16
        if self is DataType.BOOL:
            return 1
        return 8

    @property
    def is_numeric(self) -> bool:
        """True for types on which arithmetic and model fitting are defined."""
        return self in (DataType.INT64, DataType.FLOAT64)

    # -- inference ----------------------------------------------------------

    @classmethod
    def infer(cls, value: Any) -> "DataType":
        """Infer the narrowest :class:`DataType` able to hold ``value``."""
        if isinstance(value, bool) or isinstance(value, np.bool_):
            return cls.BOOL
        if isinstance(value, (int, np.integer)):
            return cls.INT64
        if isinstance(value, (float, np.floating)):
            return cls.FLOAT64
        if isinstance(value, str):
            return cls.STRING
        raise TypeMismatchError(f"cannot infer a column type for {value!r} ({type(value).__name__})")

    @classmethod
    def infer_common(cls, values: list[Any]) -> "DataType":
        """Infer a common type for a list of python values (ignoring NULLs)."""
        # A value's python type alone decides, so one sample per type will do.
        samples = dict(zip(map(type, values), values))
        seen = {cls.infer(sample) for sample in samples.values() if sample is not None}
        if not seen:
            return cls.FLOAT64
        if seen == {cls.INT64}:
            return cls.INT64
        if seen <= {cls.INT64, cls.FLOAT64}:
            return cls.FLOAT64
        if seen == {cls.BOOL}:
            return cls.BOOL
        if seen == {cls.STRING}:
            return cls.STRING
        raise TypeMismatchError(f"values mix incompatible types: {sorted(t.value for t in seen)}")

    # -- coercion -----------------------------------------------------------

    def coerce(self, value: Any) -> Any:
        """Coerce a python value to this type, raising on lossy/invalid input."""
        if value is None:
            return None
        try:
            if self is DataType.INT64:
                if isinstance(value, (bool, np.bool_)):
                    raise TypeMismatchError(f"cannot store boolean {value!r} in INT64 column")
                if isinstance(value, (float, np.floating)) and not float(value).is_integer():
                    raise TypeMismatchError(f"cannot losslessly store {value!r} in INT64 column")
                return int(value)
            if self is DataType.FLOAT64:
                if isinstance(value, (bool, np.bool_)):
                    raise TypeMismatchError(f"cannot store boolean {value!r} in FLOAT64 column")
                return float(value)
            if self is DataType.BOOL:
                if isinstance(value, (bool, np.bool_)):
                    return bool(value)
                raise TypeMismatchError(f"cannot store {value!r} in BOOL column")
            if self is DataType.STRING:
                if isinstance(value, str):
                    return value
                raise TypeMismatchError(f"cannot store {value!r} in STRING column")
        except (ValueError, OverflowError) as exc:
            raise TypeMismatchError(f"cannot coerce {value!r} to {self.value}") from exc
        raise TypeMismatchError(f"unknown data type {self!r}")


# ---------------------------------------------------------------------------
# Null handling
# ---------------------------------------------------------------------------

_INT_NULL = np.int64(np.iinfo(np.int64).min)


def null_value(dtype: DataType) -> Any:
    """The in-array sentinel used to represent SQL NULL for ``dtype``."""
    if dtype is DataType.INT64:
        return _INT_NULL
    if dtype is DataType.FLOAT64:
        return np.nan
    if dtype is DataType.BOOL:
        return False  # BOOL columns track nulls via the validity mask only.
    return None


def is_null(dtype: DataType, packed: Any) -> bool:
    """True if the packed (in-array) value represents NULL for ``dtype``."""
    if packed is None:
        return True
    if dtype is DataType.INT64:
        return bool(packed == _INT_NULL)
    if dtype is DataType.FLOAT64:
        try:
            return bool(np.isnan(packed))
        except TypeError:
            return False
    return False


def python_value(dtype: DataType, packed: Any, valid: bool = True) -> Any:
    """Convert a packed array value back to a plain python value (or None)."""
    if not valid or is_null(dtype, packed):
        return None
    if dtype is DataType.INT64:
        return int(packed)
    if dtype is DataType.FLOAT64:
        return float(packed)
    if dtype is DataType.BOOL:
        return bool(packed)
    return packed
