"""One child process of the benchmark: a set-up probe or one CLI invocation.

    python3 perfbench/child.py MODE RESULT_FILE [CLI ARGS...]

MODE is one of
    setup  import tvmhrv.cli and build its parser; write the time it took
    numpy  import numpy alone; write the time it took (the set-up reference)
    plain  run tvmhrv.cli.main(CLI ARGS), exactly as the console script does
    trace  the same, with the package functions of spans.TRACED wrapped so
           that every call records a span; write the spans
    mem    the same under tracemalloc; write the traced peak in bytes

The exit code is the CLI's. The package must be importable (PYTHONPATH).
Set-up probes time from the top of this module, where only sys and time
are loaded, so every module the program imports counts; everything else
this file needs is imported after the probe's clock stops.
"""

import sys
import time

START = time.perf_counter()


def write_json(path: str, value) -> None:
    import json

    with open(path, "w") as f:
        json.dump(value, f)


def install_tracer() -> list:
    """Replace each traced function in every package module that refers to it."""
    import functools
    import importlib

    import tvmhrv
    from spans import COUNTERS, TRACED

    spans: list = []
    stack: list = []

    def wrap(name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1] = start
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        return wrapper

    modules = [tvmhrv] + [importlib.import_module(f"tvmhrv.{layer}") for layer in TRACED]
    for layer, names in TRACED.items():
        home = importlib.import_module(f"tvmhrv.{layer}")
        for fname in names:
            original = getattr(home, fname)
            wrapped = wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    return spans


def main() -> int:
    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "numpy":
        import numpy  # noqa: F401

        elapsed = time.perf_counter() - START
        write_json(result_path, {"seconds": elapsed})
        return 0
    import tvmhrv.cli as cli

    if mode == "setup":
        cli.build_parser()
        elapsed = time.perf_counter() - START
        write_json(result_path, {"seconds": elapsed, "module": cli.__file__})
        return 0
    if mode == "plain":
        return cli.main(argv)
    if mode == "trace":
        spans = install_tracer()
        code = cli.main(argv)
        write_json(result_path, spans)
        return code
    if mode == "mem":
        import tracemalloc

        tracemalloc.start()
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        write_json(result_path, {"peak_traced_bytes": peak})
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
