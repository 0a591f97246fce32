"""Set-up shared by every test session of this repository."""

import warnings

# On a failing @given test the hypothesis plugin imports
# hypothesis.extra._patching to write its patch file.  Where libcst is
# installed, that import raises a DeprecationWarning, which the
# filterwarnings setting turns into an error that ends the session before
# the falsifying example is reported.  Imported here once, with that
# warning ignored, the module is already loaded when the plugin needs it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin writes no patch file
        pass

pytest_plugins = ["pytester"]
