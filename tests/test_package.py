"""The package's public surface."""

import camech


def test_every_export_resolves():
    assert [name for name in camech.__all__ if not hasattr(camech, name)] == []
