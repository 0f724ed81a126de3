"""``python -m mopls``: the ``mopls`` command line."""

from .cli import main

if __name__ == "__main__":  # a spawned worker imports this module as __mp_main__
    raise SystemExit(main())
