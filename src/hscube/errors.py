"""Exception types raised across the package.

Everything derives from HscubeError so callers can catch the whole family;
the ones that signal misuse of an API also derive from ValueError.
"""


class HscubeError(Exception):
    """Base class for all errors raised by hscube."""


class InvalidConfig(HscubeError, ValueError):
    """A setting (filter, window, thread count, noise or dispersion) has the
    wrong type, is not finite or is out of range."""


class DimensionMismatch(HscubeError, ValueError):
    """Array shapes or declared dimensions are inconsistent."""


class BadMagic(HscubeError, ValueError):
    """File does not start with the CHSC magic bytes."""


class UnsupportedVersion(HscubeError, ValueError):
    """CHSC file declares a format version this reader does not know."""


class TruncatedPayload(HscubeError, ValueError):
    """CHSC file ended before the declared payload was complete."""


class NonMonotoneWavelengths(HscubeError, ValueError):
    """Wavelength grid is not strictly increasing."""


class NonPositiveWavelength(HscubeError, ValueError):
    """A wavelength must be a positive number of nanometers."""


class OutOfBounds(HscubeError, IndexError):
    """A pixel or patch coordinate falls outside the image."""


class TooFewBands(HscubeError, ValueError):
    """The cube has too few spectral bands: noise estimation needs three,
    the per-band baselines one."""


class TooFewPixels(HscubeError, ValueError):
    """Noise estimation needs more pixels than bands."""


class SingularRegression(HscubeError, ValueError):
    """Band regression stayed singular even after ridge fallback."""


class DecompositionFailed(HscubeError, RuntimeError):
    """A linear-algebra factorization did not converge."""


class ResultOverflow(HscubeError, ArithmeticError):
    """A result exceeds the float64 range although the input did not."""


class ZeroReference(HscubeError, ValueError):
    """Relative error is undefined against an all-zero reference."""


class DispersionRequired(HscubeError, ValueError):
    """Thickness averaging needs a refractive-index dispersion model."""


class ManifestError(HscubeError, ValueError):
    """Experiment manifest violates the schema; message carries the field path."""
