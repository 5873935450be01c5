import gcsim


def test_every_exported_name_resolves():
    namespace = {}
    exec("from gcsim import *", namespace)
    assert set(gcsim.__all__) <= set(namespace)
    assert len(gcsim.__all__) == len(set(gcsim.__all__))
