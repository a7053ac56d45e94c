"""Registry names of the scheduling disciplines, importable without numpy.

:mod:`repro.network.schedulers` imports every discipline (and numpy) to
build its registry.  The ``ccf`` parser needs only the names, for
``--scheduler``'s choices, so they live here and ``import repro.cli``
stays numpy-free.  ``tests/network/test_schedulers.py`` keeps this
tuple equal to the registry's keys.
"""

#: All registry names in sorted order -- the CLI's ``choices`` source.
SCHEDULER_NAMES: tuple[str, ...] = (
    "dclas",
    "deadline",
    "fair",
    "fifo",
    "lpcct",
    "ncf",
    "scf",
    "sebf",
    "sequential",
    "wcct5",
    "wss",
)
