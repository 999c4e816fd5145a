"""``python -m rolling_twistor``: the rolling-twistor command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
