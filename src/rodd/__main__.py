"""`python -m rodd`: the rodd command line, for a checkout on PYTHONPATH."""

import sys

from .cli import main

sys.exit(main())
