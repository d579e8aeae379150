"""No package code that only tests (or nothing) call: every public module-level
function and class in `src/sslcrop`, and every public method and property of its
classes, is referenced somewhere in the package.  No option that only tests set
either: every field of the configs the settings build has a settings key or a
named setter in `cli`."""

import ast
import dataclasses
import inspect
from pathlib import Path

import sslcrop
from sslcrop import cli

SRC = Path(sslcrop.__file__).parent

# (module, name) of entry points called from outside the package by design.
ENTRY_POINTS = {
    ("cli", "main"),  # the `sslcrop` console script named in pyproject.toml
}


def test_every_public_name_is_referenced_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    members = {module: [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
               for module, tree in trees.items()}
    definitions = [(module, node) for module, tree in trees.items() for node in tree.body + members[module]
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert ENTRY_POINTS <= {(module, node.name) for module, node in definitions}
    references = [(node.id if isinstance(node, ast.Name) else node.attr, id(node))
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))]
    unreferenced = set()
    for module, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}  # a recursive call is no use
        if not any(name == definition.name and ref not in inside for name, ref in references):
            unreferenced.add((module, definition.name))
    assert unreferenced <= ENTRY_POINTS, sorted(unreferenced - ENTRY_POINTS)


# (section, field) of config fields that no settings key sets, each with the package
# function that sets it: a field with neither is an option nothing can set.
SET_ELSEWHERE = {
    ("run", "synth"): "settings_to_runconfig",  # the sub-configs RunConfig holds
    ("run", "train"): "settings_to_runconfig",
    ("run", "encoder_overrides"): "settings_to_runconfig",
    ("run", "simsiam"): "settings_to_runconfig",
    ("run", "forest"): "settings_to_runconfig",
    ("encoder", "n_bands"): "_encoder_config",  # from the data
    ("encoder", "n_steps"): "_encoder_config",
    ("train", "branch_threads"): "run_matrix",  # from the cores per matrix worker
}


def test_every_config_field_has_a_settings_key_or_a_named_setter():
    targets = {tuple(target.split(".")) for row in cli.SETTINGS for target in row.fields.split()}
    fields = {(section, f.name) for section, cls in cli._SECTIONS.items() for f in dataclasses.fields(cls)}
    assert fields - targets == set(SET_ELSEWHERE)
    for (_, name), setter in SET_ELSEWHERE.items():
        assert f"{name}=" in inspect.getsource(getattr(cli, setter)), (name, setter)
