"""`python -m ldpopt`: the ldpopt command line."""
import sys

from .cli import main

sys.exit(main())
