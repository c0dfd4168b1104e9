"""The package's error hierarchy.

Every typed failure derives from LayerforgeError, and its class attribute
`exit_code` is the command-line exit status for it: 1 for a failed check
or a numerical failure, 2 for an InputError, an invalid problem, argument
or parameter.  Each concrete error also keeps a builtin base
(ValueError, RuntimeError, ArithmeticError) for callers that catch those.
"""


class LayerforgeError(Exception):
    """A typed failure: a check or a numerical step could not succeed."""

    exit_code = 1


class InputError(LayerforgeError, ValueError):
    """The caller's input is invalid: a problem, an argument or a
    parameter outside its documented range."""

    exit_code = 2


class ArgumentError(InputError):
    """A parameter outside the range its reader admits, raised by the
    function that reads it: `name` is that function's parameter name and
    `rule` the range it breaks, so the message is "{name} {rule}"."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name} {rule}")
        self.name = name
        self.rule = rule
