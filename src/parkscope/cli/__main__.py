"""``python -m parkscope.cli``: the ``parkscope`` console script."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
