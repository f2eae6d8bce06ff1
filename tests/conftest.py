"""Tests leave no bytecode in the source tree.

A stray `src/indturan/__pycache__` lets every later process skip compiling
the package, which skews start-up-bound timings such as the benchmark's
`wall_s`.  pytest loads this file before the test modules, so the flag is
set before they import the package, and the environment variable is in
`os.environ` before they copy it into the environment of their CLI children.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
