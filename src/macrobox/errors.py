"""Semantic exception hierarchy shared by all macrobox modules."""

from __future__ import annotations


class MacroboxError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MacroboxError, ValueError):
    """An argument violates an operation's precondition."""


class ConstructionError(MacroboxError, ValueError):
    """A model or table cannot be built from the supplied data."""


class SignallingError(MacroboxError):
    """A marginal depends on a remote setting choice.

    Carries both conflicting values so the caller can see the gap.
    """

    def __init__(self, message: str, first=None, second=None):
        super().__init__(message)
        self.first = first
        self.second = second


class PathDisagreementError(MacroboxError):
    """Two independent computation routes produced different exact values.

    This is a bug trap: it never fires for a correct implementation.
    """


class UnsupportedExtensionError(MacroboxError):
    """The requested operation needs structure the model does not have."""
