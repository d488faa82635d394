"""Exception hierarchy shared by the library and the command line tool.

The CLI maps these onto its exit codes: InputError -> 1, ResourceBudgetError -> 2,
InvariantError -> 3.  An InvariantError signals a defect in the package, not in
the input.  A subcommand that meets one prints ``invariant error:`` and its
message, without a traceback, and exits 3; ``verify`` reports it as a failed
check, runs the checks after it, and exits 3 too.
"""


class PifiniteError(Exception):
    """Base class for errors raised by this package."""


class InputError(PifiniteError, ValueError):
    """A caller supplied an invalid value (bad prime, malformed expression, ...)."""


class ResourceBudgetError(PifiniteError, RuntimeError):
    """A computation would exceed a configured size budget (group order cap,
    enumeration budget, the digit budget, the primality bound)."""


class InvariantError(PifiniteError, RuntimeError):
    """A mathematical invariant the package relies on failed to hold; unlike an
    ``assert``, the check also runs under ``python -O``."""
