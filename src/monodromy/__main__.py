"""Run the command-line front end as ``python -m monodromy``."""

import sys

from .cli import main

sys.exit(main())
