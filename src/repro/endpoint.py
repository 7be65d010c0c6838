"""Where ``repro serve`` listens unless told otherwise.

Kept outside :mod:`repro.serve`, so the CLI can print the default in
``repro serve --help`` without importing the service and asyncio.
"""

#: Default TCP port (pass 0 to bind any free port).
DEFAULT_PORT = 8765
