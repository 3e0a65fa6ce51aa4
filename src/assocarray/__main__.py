"""``python -m assocarray``: the same command line as the ``assocarray`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
