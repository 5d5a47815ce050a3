"""A name only: the benchmark tracer (bench/tracing.py) wraps this module's
``sp`` binding of ``special``, and nothing here calls it, until ROADMAP item 3
gives the tracer a recorder to read."""

from . import special as sp  # noqa: F401
