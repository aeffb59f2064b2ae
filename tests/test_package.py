"""The public surface: every name in drivenqubit.__all__ resolves."""

import drivenqubit


def test_every_public_name_resolves():
    assert len(set(drivenqubit.__all__)) == len(drivenqubit.__all__)
    assert [name for name in drivenqubit.__all__
            if not hasattr(drivenqubit, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from drivenqubit import *", namespace)
    assert set(drivenqubit.__all__) <= set(namespace)
