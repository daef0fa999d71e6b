"""The package namespace: `import parkseq` loads no layer, and each public
name is read from the module that defines it, on every read."""

import inspect
import os
import subprocess
import sys

import pytest

import parkseq

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child(script: str) -> list[str]:
    """The words `script` prints in a fresh interpreter that finds `src`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_a_read_loads_only_the_module_that_defines_the_name():
    loaded = "print(*sorted(m for m in sys.modules if m.startswith('parkseq')), '|')\n"
    words = child(f"import sys, parkseq\n{loaded}parkseq.SizeVector((1,))\n{loaded}")
    assert words == ["parkseq", "|", "parkseq", "parkseq.core", "|"]


def test_a_submodule_read_imports_it():
    loaded = "print(parkseq.divider is sys.modules['parkseq.divider'])"
    assert child(f"import sys, parkseq\n{loaded}") == ["True"]


def test_a_patch_where_the_name_is_defined_is_what_the_package_reads():
    # the first package read comes while the patch is in place, and once it
    # is undone the package gives the original: the read kept nothing
    script = (
        "import parkseq, parkseq.bruteforce as home\n"
        "original = home.verify\n"
        "home.verify = patched = lambda *args: None\n"
        "first = parkseq.verify\n"
        "home.verify = original\n"
        "print(first is patched, parkseq.verify is original, 'verify' in vars(parkseq))"
    )
    assert child(script) == ["True", "True", "False"]


def test_a_read_waits_for_a_layer_another_thread_is_loading():
    # the divider's body is held back once it is in sys.modules, and a
    # second thread then reads a divider name: it must get the value, not
    # the half-built module's AttributeError
    script = (
        "import importlib.machinery, sys, threading, time, parkseq\n"
        "started = threading.Event()\n"
        "class Held:\n"
        "    @staticmethod\n"
        "    def find_spec(name, path=None, target=None):\n"
        "        if name != 'parkseq.divider':\n"
        "            return None\n"
        "        spec = importlib.machinery.PathFinder.find_spec(name, path)\n"
        "        run = spec.loader.exec_module\n"
        "        def exec_module(module):\n"
        "            started.set()\n"
        "            time.sleep(0.3)\n"
        "            run(module)\n"
        "        spec.loader.exec_module = exec_module\n"
        "        return spec\n"
        "sys.meta_path.insert(0, Held)\n"
        "got = {}\n"
        "def read(name):\n"
        "    try:\n"
        "        got[name] = getattr(parkseq, name).__module__\n"
        "    except AttributeError as e:\n"
        "        got[name] = type(e).__name__\n"
        "first = threading.Thread(target=read, args=('sample_linear',))\n"
        "first.start()\n"
        "started.wait(10)\n"
        "second = threading.Thread(target=read, args=('options_for_car',))\n"
        "second.start()\n"
        "first.join(); second.join()\n"
        "print(got['sample_linear'], got['options_for_car'])"
    )
    assert child(script) == ["parkseq.divider", "parkseq.divider"]


def test_each_public_name_is_the_object_its_module_defines():
    for name in parkseq.__all__:
        value = getattr(parkseq, name)
        home = sys.modules[parkseq._HOME[name]]
        assert value is vars(home)[name], name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from parkseq import *", namespace)
    assert len(parkseq.__all__) == len(set(parkseq.__all__)) == 34
    assert namespace.keys() - {"__builtins__"} == set(parkseq.__all__)


def test_dir_lists_every_public_name():
    assert set(parkseq.__all__) <= set(dir(parkseq))


def test_the_layers_are_attributes_and_the_cli_is_not():
    script = (
        "import parkseq\n"
        "layers = ('bruteforce', 'circular', 'core', 'counting', 'divider')\n"
        "print(all(hasattr(parkseq, m) for m in layers), hasattr(parkseq, 'cli'))"
    )
    assert child(script) == ["True", "False"]


def test_an_unknown_name_raises_attribute_error():
    message = r"^module 'parkseq' has no attribute 'spiral'$"
    with pytest.raises(AttributeError, match=message):
        parkseq.spiral
