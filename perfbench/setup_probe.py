"""Time one CLI set-up in a fresh interpreter and print the seconds.

Usage: python3 setup_probe.py <schema file> <phase-bifurcate arguments...>

Covers importing the package and its CLI, resolving the arguments (which
builds the model with its cached Laplacian and Green operator), importing
jsonschema and loading the command's schema: the work every CLI call pays
before it computes anything.  The package must be importable (PYTHONPATH).
"""

import sys
import time


def main(argv: list[str]) -> None:
    t0 = time.perf_counter()
    import json
    from importlib.resources import files

    from phase_bifurcate import cli

    cli.resolve(cli.build_parser().parse_args(argv[1:]))
    import jsonschema

    schema = json.loads(files("phase_bifurcate").joinpath(f"schemas/{argv[0]}").read_text())
    jsonschema.validators.validator_for(schema).check_schema(schema)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
