"""``python -m fbmecon``: the command line, as installed for the ``fbmecon`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
