"""``python -m mdlasso``: the ``mdlasso`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
