"""Run one bcastopt CLI command in this process and record what the benchmark needs.

    python3 bench/child.py MODE RESULT_JSON CLI_ARG...

MODE is ``plain`` (the CLI run as a user runs it), ``trace`` (the same with
spans around every layer call, see spans.py) or ``setup`` (stop once the
config is parsed). The exit code is the CLI's. RESULT_JSON receives the
monotonic clock reading at the end of the first config parse (the end of
set-up), the spans and counts of a traced run, and the catalog arrays of
the first catalog the run built, which the correctness checks need.
"""
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class _SetupDone(Exception):
    pass


def main(argv) -> int:
    mode, result_path, cli_args = argv[1], argv[2], argv[3:]
    if not (SRC / "bcastopt" / "cli.py").is_file():
        sys.stderr.write(f"bcastopt sources not found under {SRC}\n")
        return 3
    sys.path.insert(0, str(SRC))
    import bcastopt.cli

    if Path(bcastopt.cli.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"imported bcastopt from {bcastopt.cli.__file__}, not {SRC}\n")
        return 3
    from spans import Tracer, patch

    state = {}
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()

    def end_setup(load_spec):
        def wrapper(*args, **kwargs):
            spec = load_spec(*args, **kwargs)
            state.setdefault("setup_end", time.monotonic())
            if mode == "setup":
                raise _SetupDone
            return spec
        return wrapper

    def keep_catalog(normalize):
        def wrapper(*args, **kwargs):
            result = normalize(*args, **kwargs)
            state.setdefault("catalog", result[0])
            return result
        return wrapper

    patch("scenario", "load_spec", end_setup)
    patch("scenario", "normalize", keep_catalog)
    try:
        rc = bcastopt.cli.main(cli_args)
    except _SetupDone:
        rc = 0

    from checks import catalog_record

    out = {"setup_end": state.get("setup_end"), "exit_code": rc}
    if "catalog" in state:
        out["catalog"] = catalog_record(state["catalog"])
    if tracer is not None:
        out["spans"], out["counts"] = tracer.spans, tracer.counts
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
