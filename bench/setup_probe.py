"""Times a user's set-up path in this (fresh) interpreter.

``python setup_probe.py WORKLOAD MODEL_PATH RUNTIME`` prints one JSON
object with the seconds spent in ``import repro``, ``load_model`` and
``open_engine``. The benchmark's own import of ``workloads`` sits between
the timed segments and is not counted.
"""

import json
import sys
import time


def main() -> None:
    name, model_path, runtime = sys.argv[1:4]

    started = time.perf_counter()
    import repro

    imported = time.perf_counter()

    import workloads

    config = workloads.engine_config(name, runtime=runtime)

    load_started = time.perf_counter()
    model = repro.load_model(model_path)
    loaded = time.perf_counter()
    engine = repro.open_engine(model, config)
    opened = time.perf_counter()
    engine.close()

    print(
        json.dumps(
            {
                "import_s": imported - started,
                "load_model_s": loaded - load_started,
                "open_engine_s": opened - loaded,
            }
        )
    )


if __name__ == "__main__":
    main()
