"""Error taxonomy shared across the package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map error classes to distinct exit codes. :func:`check_keys` is
the one field check of every stored record's reader, :func:`check_types`
the type check of every record built from JSON.
"""

from dataclasses import fields


class DefmapError(Exception):
    """Base class for all package-specific errors."""


class DimMismatch(DefmapError):
    """An array argument has an incompatible shape."""


class DegenerateInput(DefmapError):
    """An input is numerically degenerate (zero norm, collinear 6D pair, ...)."""


class BehindCamera(DefmapError):
    """A perspective projection was requested for a point with z <= 0."""


class WrongCameraKind(DefmapError):
    """An operation got a camera of the wrong projection kind."""


class SingularSystem(DefmapError):
    """A linear system required by a closed-form solve is (near-)singular."""


class EmptyVisibleSet(DefmapError):
    """A loss that averages over visible keypoints got an empty visible set."""


class KTooLarge(DefmapError):
    """min-k aggregation was asked for more references than available."""


class DegenerateCloud(DefmapError):
    """A point cloud has (near-)zero variance and cannot be normalized."""


class DegenerateDepth(DefmapError):
    """A predicted depth map has (near-)zero variance over the mask."""


class GimbalDegenerate(DefmapError):
    """Twist-swing decomposition hit the 180-degree swing singularity."""


class DegenerateRotations(DefmapError):
    """Rotations too alike to determine a shared axis.

    Nothing raises it now; it stays so that every class defined after it
    keeps its exit code (the CLI numbers the classes in definition order).
    """


class InvalidSpec(DefmapError):
    """A category/config specification fails validation."""


class InfeasibleConstraint(DefmapError):
    """A batch-construction constraint cannot be satisfied."""


class NonFiniteGradient(DefmapError):
    """A training step produced a non-finite gradient."""


class CheckpointError(DefmapError):
    """A checkpoint file is malformed or inconsistent with its header."""


class IoError(DefmapError):
    """A required path is missing or an artifact on disk is malformed."""


def check_keys(found, expected, what: str, error: type) -> None:
    """Raise ``error`` unless ``found`` is a dict keyed by exactly ``expected``."""
    if not isinstance(found, dict):
        raise error(f"{what} is not a mapping")
    missing, unknown = set(expected) - set(found), set(found) - set(expected)
    if missing or unknown:
        raise error(f"{what}: missing fields {sorted(missing)}, "
                    f"unknown fields {sorted(unknown)}")


#: field annotation -> the types it admits (an int is a float too)
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
          "tuple": tuple, "int | None": (int, type(None))}


def check_types(record, error: type, records: dict | None = None) -> None:
    """Raise ``error`` unless each field of the dataclass ``record`` holds a
    value of its annotated type; a bool is only a bool. ``records`` maps
    the annotation of a nested record field to the record's class."""
    for f in fields(record):
        v = getattr(record, f.name)
        if not isinstance(v, (records or {}).get(f.type) or _TYPES[f.type]) or (
                isinstance(v, bool) and f.type != "bool"):
            raise error(f"{f.name} must be {f.type}, got {v!r}")
