"""Exception hierarchy shared across the toolkit."""


class MsfmError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(MsfmError):
    """Invalid configuration value or config file."""


class FormatError(MsfmError):
    """Malformed input file (feature file, model file, graph dump)."""


class NotRegisteredError(MsfmError):
    """An image id was queried that is not registered in the model."""


class AlreadyRegisteredError(MsfmError):
    """Attempt to register a camera for an image id that already has one."""


class DegenerateGeometryError(MsfmError):
    """Geometric configuration admits no meaningful answer.

    Raised for coincident camera centers, epipole queries, invalid lines,
    unresolvable pose decompositions and collinear alignment samples.
    """


class InsufficientDataError(MsfmError):
    """Too few correspondences / cameras to run the estimator at all."""


class NoSeedError(MsfmError):
    """No match-graph edge qualifies as a reconstruction seed."""


class StageError(MsfmError):
    """A pipeline stage failed fatally; the last good snapshot is preserved."""
