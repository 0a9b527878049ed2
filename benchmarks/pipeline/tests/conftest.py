"""Self-tests of the pipeline benchmark (not collected by tier-1):

    PYTHONPATH=src python -m pytest benchmarks/pipeline/tests -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
