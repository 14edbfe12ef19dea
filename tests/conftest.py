"""Suite-wide fixtures.

The CLI writes its JSON payloads without checking them, so that the program
never depends on ``jsonschema``.  The schemas shipped in
``phase_bifurcate/schemas`` are enforced here instead: every payload a test
makes through ``cli._emit_json`` is validated against the schema its
``config.command`` selects, and one that breaks it fails the test with
``jsonschema.ValidationError``."""

import json
from functools import cache
from importlib import resources

import jsonschema
import pytest

from phase_bifurcate import cli

SCHEMA_FILES = {
    "points": "points.schema.json",
    "trace": "diagram.schema.json",
    "solutions": "solutions.schema.json",
    "verify": "verify.schema.json",
}


@cache
def command_schema(command: str) -> dict:
    return json.loads(resources.files("phase_bifurcate.schemas").joinpath(SCHEMA_FILES[command]).read_text())


@pytest.fixture(autouse=True)
def json_payloads_match_their_schema(monkeypatch):
    emit = cli._emit_json

    def validated_emit(cfg, payload):
        jsonschema.validate(payload, command_schema(payload["config"]["command"]))
        emit(cfg, payload)

    monkeypatch.setattr(cli, "_emit_json", validated_emit)
