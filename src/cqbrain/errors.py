"""Exception types raised across the package.

Every error inherits from CqbrainError so callers can catch the whole
family at once (the CLI maps them to exit code 2, config problems to 1).
"""


class CqbrainError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CqbrainError):
    """Invalid configuration: unknown key, bad value, or missing path."""


# -- file formats -------------------------------------------------------

class BadMagic(CqbrainError):
    """File does not start with (or contain) the expected magic bytes."""


class BadVersion(CqbrainError):
    """Container version is not supported."""


class Truncated(CqbrainError):
    """Byte stream ends before the declared payload is complete."""


class BadFormat(CqbrainError):
    """Malformed content beyond the magic check (PGM header, raster, CQCK trailing bytes)."""


class UnsupportedDatatype(CqbrainError):
    """Voxel datatype code outside the supported set."""


class BadRank(CqbrainError):
    """Volume rank is not 3 (only scalar 3D volumes are handled)."""


class DuplicateName(CqbrainError):
    """Checkpoint contains the same tensor name twice."""


# -- geometry / planning ------------------------------------------------

class InvalidRequest(CqbrainError):
    """Slice request is impossible (n == 0 or n > m)."""


class EmptyPlan(CqbrainError):
    """Exclusions k1 + k2 leave no slice to extract."""


class IndexOutOfRange(CqbrainError):
    """Slice index outside the plane's extent."""


# -- tensor kernels -----------------------------------------------------

class ShapeMismatch(CqbrainError):
    """Operands have incompatible shapes."""


# -- quantum simulation -------------------------------------------------

class BadQubit(CqbrainError):
    """Qubit index outside [0, n_qubits)."""


class BadLength(CqbrainError):
    """Feature or parameter vector length does not match the qubit count."""


# -- diffusion ----------------------------------------------------------

class BadRange(CqbrainError):
    """Noise schedule bounds outside (0, 1) or ill-ordered."""


class BadTimestep(CqbrainError):
    """Timestep t outside [1, T]."""


# -- datasets / training ------------------------------------------------

class EmptyDataset(CqbrainError):
    """Training or evaluation set has no samples."""


class EmptyBatch(CqbrainError):
    """A training step received zero items."""


class EmptyInput(CqbrainError):
    """An input directory holds no usable files."""


class MissingDiffusionModel(CqbrainError):
    """Class balancing requested but no diffusion checkpoint supplied."""


class NoRuns(CqbrainError):
    """Report requested over zero completed runs."""
