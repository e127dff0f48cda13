"""``python -m ktaquin``: the same command line as the ``ktaquin`` script."""

import sys

from .cli import main

sys.exit(main())
