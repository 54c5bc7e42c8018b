"""Enumeration budget shared by the finite-field search routines."""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10_000_000
ENV_VAR = "PARAM_ATLAS_BUDGET"


class BudgetExceededError(RuntimeError):
    def __init__(self, required: int, allowed: int, what: str):
        super().__init__(
            f"{what} needs {required} candidates, budget is {allowed} "
            f"(raise via --budget or {ENV_VAR})")
        self.required = required
        self.allowed = allowed


def current_budget(override: int | None = None) -> int:
    """The override, else PARAM_ATLAS_BUDGET, else the default.

    Raises ValueError naming the source when the value is not an integer >= 0.
    """
    if override is not None:
        source, value = "--budget", override
    else:
        env = os.environ.get(ENV_VAR)
        if not env:
            return DEFAULT_BUDGET
        source = ENV_VAR
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{source} must be an integer >= 0, got {env!r}") from None
    if value < 0:
        raise ValueError(f"{source} must be an integer >= 0, got {value}")
    return value


def check_budget(required: int, what: str, override: int | None = None) -> None:
    allowed = current_budget(override)
    if required > allowed:
        raise BudgetExceededError(required, allowed, what)
