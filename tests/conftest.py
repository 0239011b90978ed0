import pytest


@pytest.fixture(scope="session", autouse=True)
def builtin_constants():
    """Every test starts on the built-in constants; one that needs a constants
    file sets MOTT_TI_CONSTANTS itself, with monkeypatch.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("MOTT_TI_CONSTANTS", raising=False)
        yield
