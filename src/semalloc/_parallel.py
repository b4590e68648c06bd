"""Empty: every command runs in one thread, and nothing here is called.

The module stays only because the benchmark's tracer (``bench/tracing.py``)
imports every module in its ``LAYERS`` tuple, this one included.  It goes
when that tuple drops it.
"""
