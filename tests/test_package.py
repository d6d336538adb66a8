import types

import nonlinosc


def test_export_list_matches_the_package():
    public = {
        name
        for name, value in vars(nonlinosc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(nonlinosc.__all__) == public
    namespace: dict = {}
    exec("from nonlinosc import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
