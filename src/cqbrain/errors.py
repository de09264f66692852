"""Exception types raised across the package, one per kind of failure.

The CLI prints an error's message and exits with the code given here:

- CqbrainError (2): the base of every class below, to catch the whole family.
- ConfigError (1): a config file or key the command cannot use.
- BadFormat (2): bytes read that are not a valid NIfTI, PGM, CQCK, manifest or curves.csv.
- BadMagic (2): a BadFormat whose magic bytes are wrong.
- Truncated (2): a BadFormat whose payload ends early.
- InvalidArgument (2): an argument or hyperparameter outside what a function accepts.
- EmptyInput (2): nothing to work on: no input files, an empty dataset or batch, no runs.
- Diverged (2): training, sampling or segmentation produced non-finite values.
"""


class CqbrainError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CqbrainError):
    """Invalid configuration: unknown key, bad value, or missing path."""


class BadFormat(CqbrainError):
    """Bytes that are not a valid NIfTI, PGM, CQCK, dataset manifest or curves.csv file."""


class BadMagic(BadFormat):
    """File does not start with (or contain) the expected magic bytes."""


class Truncated(BadFormat):
    """Byte stream ends before the declared payload is complete."""


class InvalidArgument(CqbrainError):
    """An argument or hyperparameter outside what the function accepts."""


class EmptyInput(CqbrainError):
    """No input to work on: no usable files, an empty dataset or batch, or no completed runs."""


class Diverged(CqbrainError):
    """A training step, a sampling step or the segmenter produced non-finite values."""
