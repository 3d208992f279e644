"""Exception types shared across the toolkit, and the one check of a setting or an array's dtype.

The CLI maps these onto process exit codes: data and shape problems exit
with 2, numeric failures with 3.  Anything else is a bug and crashes.

Every entry point checks each scalar setting it takes through :func:`_check_setting`,
so a wrong type, a non-finite real, a real beyond the float range or a value below its
least is a DomainError naming it; a dataset, model, config or file path of the wrong
type fails :func:`_check_type`, naming it too.  Every array the package widens to
float64 passes :func:`_float64`, so a complex, string or object array is a DomainError
naming its source and dtype, not a silent cast.  Every float32 array it holds or writes, model
parameters and embeddings alike, passes :func:`_float32_payload`, which keeps that rule.
"""

import math
import numbers

import numpy as np


class FusionToolkitError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(FusionToolkitError):
    """Operand shapes or dimensions are incompatible."""


class DomainError(FusionToolkitError):
    """A value lies outside the range an operation accepts."""


class NumericError(FusionToolkitError):
    """A computation produced or received a non-finite value."""


class DataError(FusionToolkitError):
    """Base class for dataset and file level problems."""


class FileFormatError(DataError):
    """Base class for problems with the binary file formats."""


class BadMagicError(FileFormatError):
    """The file does not start with the expected magic bytes."""


class VersionMismatchError(FileFormatError):
    """The file declares a format version this reader does not speak."""


class TruncatedFileError(FileFormatError):
    """The file is shorter (or longer) than its header promises."""


class ChecksumError(FileFormatError):
    """Stored and recomputed checksums disagree."""


class UnknownKindError(FileFormatError):
    """A model file declares an architecture kind this build does not know."""


class NonFiniteError(DataError):
    """An embedding file or dataset block holds a value that is not finite in float32."""


class LabelDomainError(DataError):
    """A label set uses class ids outside the supported alphabet."""


class DuplicateIdError(DataError):
    """The same sample id appears more than once."""


class DatasetError(DataError):
    """Dataset pieces are missing, misaligned, or overlap across splits."""


class EmptyPredictionError(DataError):
    """A prediction with no labels was fed where the contract forbids it."""


# the type a setting of each kind accepts and its name; a bool is no number, though an int
_SETTING_TYPES = {
    bool: (bool, "a bool"),
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
}


def _check_setting(name: str, value, kind: type, least=None) -> None:
    """Refuse ``value`` for setting ``name`` unless it is of ``kind``, finite and ``>= least``."""
    accepted, noun = _SETTING_TYPES[kind]
    if not isinstance(value, accepted) or isinstance(value, bool) != (accepted is bool):
        raise DomainError(f"{name} must be {noun}, got {value!r}")
    if kind is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer or fraction beyond the float range
            raise DomainError(f"{name} must lie in the float range, got a number beyond it") from None
        if not finite:
            raise DomainError(f"{name} must be finite, got {value}")
    if least is not None and value < least:
        bound = "a finite value >= " if kind is float else ">= "
        raise DomainError(f"{name} must be {bound}{least}, got {value}")


def _check_type(name: str, value, kind: type | tuple[type, ...],
                error: type[FusionToolkitError]) -> None:
    """Refuse ``value`` for argument ``name`` with ``error`` unless it is a ``kind``, one
    type or a tuple of them."""
    if not isinstance(value, kind):
        kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise error(f"{name} must be of type {kinds}, got {type(value).__name__}")


def _float64(values, source) -> np.ndarray:
    """``values`` as float64, not copied when float64 already; a dtype whose kind is not
    real (``"biuf"``), such as complex, string or object, is a DomainError naming ``source``."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise DomainError(f"{source}: values must be real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _float32_payload(values, source, error: type[FusionToolkitError]) -> np.ndarray:
    """The float32 form of ``values`` for ``source``, such as a file, a block or a parameter.

    A float32 array is its own payload, without a copy; any other real values
    are rounded once from float64.  Values that are not real numbers, such as
    complex or string arrays, raise :class:`DomainError` naming ``source`` and
    the dtype.  A value that is not finite in float32 raises ``error`` naming
    ``source``, the value, its row and its column (row 0 for a vector).
    """
    arr = np.asarray(values)
    if arr.dtype != np.dtype("<f4"):
        arr = _float64(arr, source)
    with np.errstate(over="ignore"):  # beyond the float32 range becomes +-inf, caught below
        payload = arr.astype("<f4", copy=False)
    flat = payload.ravel()
    # min and max propagate NaN and reach +-inf, so two reductions see any non-finite value
    if flat.size and not (np.isfinite(flat.min()) and np.isfinite(flat.max())):
        first, d = int(np.flatnonzero(~np.isfinite(flat))[0]), arr.shape[-1]
        raise error(f"{source}: value {arr.flat[first]} at row {first // d}, column {first % d} "
                    "is non-finite in float32")
    return payload
