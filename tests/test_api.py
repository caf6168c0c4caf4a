"""The public API: every annotation of a public function or constructor resolves."""

import inspect
import typing

import pytest

import iondecoh

CALLABLES = [name for name in iondecoh.__all__ if callable(getattr(iondecoh, name))]


@pytest.mark.parametrize("name", CALLABLES)
def test_type_hints_resolve(name):
    obj = getattr(iondecoh, name)
    # a class's hints are its attributes'; its constructor's are its arguments'
    typing.get_type_hints(obj.__init__ if inspect.isclass(obj) else obj)
