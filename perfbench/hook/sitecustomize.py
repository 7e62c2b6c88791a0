"""Start-up hook for processes the benchmark launches (fleet workers, server).

This directory is on their ``PYTHONPATH`` in every run, so traced and
untraced runs launch them with the same command.  Only when
``PERFBENCH_TRACE_DIR`` is set does the process install the span wrappers
of ``perfbench/tracing.py`` before its own code runs.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    from perfbench import tracing

    tracing.install_from_env()
