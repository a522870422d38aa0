"""Exception types shared across the package."""


class LevelMismatchError(ValueError):
    """Two objects live at incompatible levels; lift explicitly first."""


class CapExceededError(RuntimeError):
    """An input would pass one of the fixed limits in `cubechar.caps`; raised
    before the work it bounds starts.  `cap` is the record and `value` the
    quantity it refused, in the record's unit (a lower bound where the exact
    quantity is too large to count); the message is rendered from both."""

    def __init__(self, cap, value):
        super().__init__(cap, value)
        self.cap = cap
        self.value = value

    def __str__(self):
        cap = self.cap
        return f"{cap.name} {self.value} over its limit {cap.limit} ({cap.unit}: {cap.bounds})"


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the inputs."""


class FalsificationError(RuntimeError):
    """A claimed identity failed on a concrete input; raised, with a message
    naming the input, instead of silently returning a wrong or partial
    answer.  A sign left undetermined at the precision cap falsifies
    nothing: `c_alpha_real` and `noninteger_witness` return it in their
    report."""


class InternalInconsistencyError(RuntimeError):
    """Two independent routes to the same value disagreed (implementation bug)."""
