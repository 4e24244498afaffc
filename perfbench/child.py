"""One CLI call in a fresh interpreter, as a user pays for it.

    python3 child.py ROOT RESULT_JSON TRACE SPAWN_TIME -- CLI_ARGS...

SPAWN_TIME is the parent's time.monotonic() just before it started this
process; on one machine that clock is shared between processes, so
setup_s covers interpreter start, `import merminsim.cli` and a
load_config of the workload's config. The CLI call itself is timed from
entry into cli.main to its return. The exit code is the CLI's.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    root, result_path, trace, spawn_time = sys.argv[1:5]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    src = Path(root) / "src"
    sys.path.insert(0, str(src))

    t0 = time.monotonic()
    import merminsim.cli

    t1 = time.monotonic()
    if not Path(merminsim.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported merminsim from {merminsim.__file__}, not {src}")
    merminsim.cli.load_config(argv[argv.index("--config") + 1])
    t2 = time.monotonic()

    cli_main = merminsim.cli.main
    tracer = None
    if trace == "1":
        sys.path.insert(0, str(Path(__file__).parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(merminsim)
        cli_main = tracer.wrap("cli.main", cli_main)

    start = time.perf_counter()
    rc = cli_main(argv)
    end = time.perf_counter()
    sys.stdout.flush()

    result = {
        "setup_s": t2 - float(spawn_time),
        "import_s": t1 - t0,
        "load_config_s": t2 - t1,
        "cmd_wall_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exit_code": rc,
        "spans": tracer.spans if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
