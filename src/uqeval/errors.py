"""Exception hierarchy shared across the package."""


class UqevalError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(UqevalError):
    """A value or data structure violates one of its invariants."""


class FormatError(ValidationError):
    """An input file does not match its documented grammar."""


class AlignmentError(ValidationError):
    """Prediction and label sample-id sets do not match."""

    def __init__(self, message, only_left=(), only_right=()):
        super().__init__(message)
        self.only_left = tuple(only_left)
        self.only_right = tuple(only_right)


class TrainingDivergedError(UqevalError):
    """Training produced a non-finite loss."""

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch

    def __reduce__(self):
        return type(self), (self.args[0], self.epoch), self.__dict__
