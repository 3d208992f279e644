"""Exception types shared across the toolkit, and the one check of a scalar setting.

The CLI maps these onto process exit codes: data and shape problems exit
with 2, numeric failures with 3.  Anything else is a bug and crashes.

Every entry point checks each scalar setting it takes through :func:`_check_setting`,
so a wrong type, a non-finite real, a real beyond the float range or a value below its
least is a DomainError naming it.
"""

import math
import numbers


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


class KindMismatchError(FileFormatError):
    """A model file holds a different architecture kind than the caller expected."""


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
