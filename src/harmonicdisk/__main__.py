"""``python -m harmonicdisk``: the ``harmonicdisk`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
