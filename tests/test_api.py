"""The package's public names: a stale re-export fails here, not at
import time in user code."""

import mouldnf
import mouldnf.alphabet


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mouldnf import *", namespace)
    assert all(hasattr(mouldnf, name) for name in mouldnf.__all__)
    assert set(mouldnf.__all__) <= set(namespace)


def test_words_are_plain_tuples():
    # a word is the tuple of its letters; no wrapper class is exported
    for name in ("Word", "EMPTY_WORD"):
        assert name not in mouldnf.__all__
        assert not hasattr(mouldnf, name)
        assert not hasattr(mouldnf.alphabet, name)
