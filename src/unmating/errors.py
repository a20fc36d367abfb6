"""Exception types, one per pipeline stage.

Each class names its stage and the CLI exit code for a failure there; the
command line reads both from the caught error.
"""


class UnmatingError(Exception):
    """The base of the stage errors; never raised itself, so it names no
    stage and no exit code (exit 1 is a failed `validate`)."""


class MapfileError(UnmatingError):
    """Malformed input file (bad syntax, references, arity), or a path that
    cannot be read or written."""

    stage = None
    exit_code = 2


class ValidationFailure(UnmatingError):
    """Semantic validation failed; carries the report."""

    stage = "complex"
    exit_code = 3

    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(f.check for f in report.findings))


class SpectralError(UnmatingError):
    stage = "spectral"
    exit_code = 4


class ParameterizationError(UnmatingError):
    stage = "parameterize"
    exit_code = 5


class PortraitError(UnmatingError):
    stage = "portraits"
    exit_code = 6


class LaminationError(UnmatingError):
    stage = "laminations"
    exit_code = 7
