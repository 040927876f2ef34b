"""``mdlasso.__all__`` names exactly the package's public namespace.

A function deleted from a module but still exported fails here, not only
at ``from mdlasso import *``.
"""

import types

import mdlasso


def test_all_is_the_public_namespace():
    assert len(mdlasso.__all__) == len(set(mdlasso.__all__))
    public = {name for name, value in vars(mdlasso).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(mdlasso.__all__) == public
    namespace = {}
    exec("from mdlasso import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
