"""Pipeline benchmark of the tracer (see README.md)."""
