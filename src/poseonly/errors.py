"""Exception hierarchy.

Two families matter for the CLI: ``InputError`` maps to exit code 1
(unusable files/arguments), ``NumericalError`` maps to exit code 2
(degenerate or unsolvable geometry).
"""


class PoseOnlyError(Exception):
    """Base class for every error raised by this package."""


class InputError(PoseOnlyError):
    """Malformed file, invalid configuration, or unusable argument."""


class NumericalError(PoseOnlyError):
    """Degenerate geometry or a numerically unsolvable problem."""


class NonPositiveDepth(NumericalError):
    """A point projects behind (or onto) the camera plane."""


class DegeneratePair(NumericalError):
    """View pair with parallax indicator below the usable floor."""


class DegenerateBase(NumericalError):
    """A track's anchor pair lost its parallax during refinement."""


class AllPairsDegenerate(NumericalError):
    """Every view pair of a track is parallax-free (pure rotation)."""


class InsufficientParallax(NumericalError):
    """Fewer than two usable tracks; global translation unrecoverable."""


class RankDeficient(NumericalError):
    """Ambiguous null space: the translation solution is not unique."""


class DegenerateTriangulation(NumericalError):
    """Triangulation system has rank < 3; point position undetermined."""


class NegativeDepth(NumericalError):
    """Fused depth came out non-positive; point rejected."""


class DivergedNumerically(NumericalError):
    """A cost or a pose to be written became non-finite; inputs are corrupt."""


class DisconnectedViewGraph(NumericalError):
    """The relative-direction graph does not connect all views."""


class GeometryInfeasible(NumericalError):
    """Scene generation could not place points visible to all views."""


class ConfigInvalid(InputError):
    """Scene or solver configuration violates its invariants."""


class ParseError(InputError):
    """Problem-file syntax or consistency error.

    ``line`` is the 1-based line number of the first offending line,
    or None when the problem is not tied to a single line.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VersionUnsupported(InputError):
    """Problem file declares a format version this reader cannot handle."""


class TooFewPoints(InputError):
    """Not enough correspondences for the requested alignment."""
