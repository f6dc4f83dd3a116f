import ast
import inspect
from pathlib import Path

import stockcast
from stockcast import errors


def raised_names() -> set[str]:
    """Names of the classes that a `raise` statement in the package names."""
    names = set()
    for path in Path(stockcast.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised_or_is_a_base_of_one_that_is():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__]
    names = raised_names()
    raised = [cls for cls in classes if cls.__name__ in names]
    unused = [cls.__name__ for cls in classes
              if not any(issubclass(r, cls) for r in raised)]
    assert raised and unused == []
