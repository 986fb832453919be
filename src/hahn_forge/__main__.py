"""``python -m hahn_forge``: the ``hahn-forge`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
