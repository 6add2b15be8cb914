"""Error types shared across the package.

Validation errors signal bad parameters or inconsistent inputs; budget errors
signal requests that would exceed the configured dense-simulation caps;
invariant errors signal that a computed quantity broke a property it must
hold by construction (a sampler drifting off its group, a confined shallow
sample losing probability), which means the code, not the input, is wrong.
The command-line tool maps them to exit codes 1, 2 and 3 respectively.
"""


class ValidationError(ValueError):
    """A parameter or input fails a precondition."""


class BudgetError(RuntimeError):
    """A request exceeds a size cap meant to prevent runaway computation."""


class InvariantError(RuntimeError):
    """A self-check failed: a result violates a property it holds by construction."""
