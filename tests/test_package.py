import beamilc


def test_export_list_resolves():
    assert len(set(beamilc.__all__)) == len(beamilc.__all__)
    for name in beamilc.__all__:
        assert getattr(beamilc, name) is not None, name


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from beamilc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(beamilc.__all__)
