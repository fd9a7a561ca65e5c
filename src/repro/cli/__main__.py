"""``python -m repro.cli``: the ``jem-mapper`` command."""

import sys

from . import main

sys.exit(main())
