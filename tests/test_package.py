"""The package's public names: resolved on first use, the same objects as
in their defining modules."""

from __future__ import annotations

import subprocess
import sys

import pytest

import catentropy


def test_every_public_name_is_its_defining_modules_object():
    assert len(set(catentropy.__all__)) == len(catentropy.__all__)
    for name in catentropy.__all__:
        value = getattr(catentropy, name)
        assert value.__module__.startswith("catentropy."), name
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_the_public_names_before_first_use():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import catentropy; names = dir(catentropy); "
         "print(set(catentropy.__all__) <= set(names), '__version__' in names)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\n"


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from catentropy import *", namespace)
    for name in catentropy.__all__:
        assert namespace[name] is getattr(catentropy, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        catentropy.no_such_name
    assert not hasattr(catentropy, "no_such_name")
