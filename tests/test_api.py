"""Public-API surface tests: everything README documents must exist."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Training, trace-generation and paper-study modules: no classify pass
#: runs them, so ``import repro``, the pass itself and the ``repro
#: classify`` process load none of them (``TestImportPath``).
OFF_PATH_MODULES = (
    "repro.analysis.distributions",
    "repro.analysis.divergence",
    "repro.analysis.visualize",
    "repro.core.delay",
    "repro.core.estimation",
    "repro.core.feature_selection",
    "repro.data.binarygen",
    "repro.data.corpus",
    "repro.data.cryptogen",
    "repro.data.markov",
    "repro.data.textgen",
    "repro.data.wordlists",
    "repro.ingest.supervise",
    "repro.ml.metrics",
    "repro.ml.validation",
    "repro.ml.svm.ovo",
    "repro.ml.svm.smo",
    "repro.ml.tree.pruning",
    "repro.net.hashing",
    "repro.net.trace",
    "repro.net.tracegen",
    "repro.streaming.entropy_stream",
    "repro.streaming.sketch",
)

#: A cold user of a saved model: the ``repro`` / ``numpy.random`` module
#: set after each step, as JSON on stdout.
_SERVING_PROBE = """
import json, sys
import repro

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "repro" or m == "numpy.random")

steps = [loaded()]
classifier = repro.load_model(sys.argv[1])
steps.append(loaded())
with repro.open_engine(classifier) as engine:
    with repro.PcapFileSource(sys.argv[2]) as source:
        stats = engine.process_source(source)
assert stats.classifications > 0
steps.append(loaded())
repro.render_text(engine.metrics)
steps.append(loaded())
print(json.dumps(steps))
"""


def _run_cold(code: str, *args: str) -> str:
    """stdout of ``code`` in a fresh interpreter that compiles every import."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _imports_engine(subpackage: str) -> bool:
    """Whether importing any module of ``subpackage`` pulls in ``repro.engine``.

    ``repro/__init__`` itself imports the engine, so the probe stands in
    a bare ``repro`` namespace, then imports every module under the
    target (``pkgutil.walk_packages``): the subpackage ``__init__``s
    import nothing, so importing the package alone would prove nothing.
    """
    probe = (
        "import importlib, importlib.util, pkgutil, sys, types\n"
        "pkg = types.ModuleType('repro')\n"
        "pkg.__path__ = list("
        "importlib.util.find_spec('repro').submodule_search_locations)\n"
        "sys.modules['repro'] = pkg\n"
        f"root = importlib.import_module({subpackage!r})\n"
        "for info in pkgutil.walk_packages(root.__path__, root.__name__ + '.'):\n"
        "    importlib.import_module(info.name)\n"
        "sys.exit('repro.engine' in sys.modules)\n"
    )
    return subprocess.run([sys.executable, "-c", probe]).returncode != 0


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_present(self):
        major, _rest = repro.__version__.split(".", 1)
        assert int(major) >= 1

    def test_core_types_importable_from_top_level(self):
        assert inspect.isclass(repro.IustitiaClassifier)
        assert inspect.isclass(repro.ClassificationDatabase)
        assert callable(repro.build_corpus)
        assert callable(repro.generate_gateway_trace)

    def test_labels_are_flow_natures(self):
        assert repro.TEXT in repro.FlowNature
        assert repro.BINARY in repro.FlowNature
        assert repro.ENCRYPTED in repro.FlowNature

    def test_feature_sets_exported(self):
        assert repro.PHI_SVM.widths == (1, 2, 3, 9)
        assert repro.FULL_FEATURES.widths == tuple(range(1, 11))

    def test_public_functions_have_docstrings(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_facade_exported(self):
        for name in ("train", "save_model", "load_model", "open_engine"):
            assert name in repro.__all__
            assert callable(getattr(repro, name))
        for name in ("MetricsRegistry", "EngineConfig",
                     "render_text", "validate_text"):
            assert name in repro.__all__
        # Telemetry is the engine's registry, not a sink.
        assert not hasattr(repro, "MetricsSink")

    def test_subpackages_have_docstrings(self):
        import repro.analysis
        import repro.core
        import repro.data
        import repro.experiments
        import repro.ml
        import repro.net
        import repro.streaming

        for module in (
            repro.analysis, repro.core, repro.data, repro.experiments,
            repro.ml, repro.net, repro.streaming,
        ):
            assert module.__doc__

    def test_subpackage_inits_hold_only_a_docstring(self):
        """``repro/__init__`` is the one re-export layer: every subpackage
        ``__init__`` is its docstring and nothing else."""
        root = REPO_ROOT / "src" / "repro"
        inits = sorted(root.glob("*/**/__init__.py"))
        assert len(inits) >= 12
        for path in inits:
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), path
            extra = [type(node).__name__ for node in tree.body[1:]]
            assert not extra, f"{path.relative_to(root)} holds {extra}"

    def test_iustitia_engine_facade_is_gone(self):
        """``open_engine`` is the one front door."""
        assert not hasattr(repro, "IustitiaEngine")
        assert "IustitiaEngine" not in repro.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.pipeline")

    def test_core_does_not_import_engine(self):
        """``repro.core`` sits below ``repro.engine``, never the reverse."""
        assert not _imports_engine("repro.core")

    def test_ingest_does_not_import_engine(self):
        """``repro.ingest`` sits below the engine: ``process_source`` is
        the only feed loop, so nothing in ingest drives an engine."""
        assert not _imports_engine("repro.ingest")

    def test_live_ingest_surface_is_gone(self):
        """No driver, no socket/replay/trace sources, no asyncio at import."""
        for name in ("AsyncIngestDriver", "DatagramIngestProtocol",
                     "SocketSource", "ReplaySource", "TraceSource"):
            assert not hasattr(repro, name), name
            assert name not in repro.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.ingest.driver")
        probe = "import repro, sys; sys.exit('asyncio' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", probe]).returncode == 0

    @pytest.mark.parametrize("document", ["README.md", "DESIGN.md"])
    def test_documented_names_resolve(self, document):
        """Every dotted ``repro.…`` name the docs mention exists."""
        text = (REPO_ROOT / document).read_text()
        names = set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text))
        assert names
        missing = []
        for name in sorted(names):
            try:
                pkgutil.resolve_name(name)
            except (ImportError, AttributeError):
                missing.append(name)
        assert not missing, f"{document} names that do not resolve: {missing}"


class TestFacade:
    """The four-call workflow of repro.api, end to end."""

    def test_train_defaults_produce_fitted_svm(self, small_corpus):
        clf = repro.train(small_corpus, buffer_size=16)
        assert isinstance(clf, repro.IustitiaClassifier)
        assert clf.buffer_size == 16
        assert clf.classify_buffer(b"A" * 16) in repro.FlowNature

    def test_save_load_round_trip(self, trained_svm, tmp_path, sample_files):
        path = tmp_path / "model.json"
        repro.save_model(trained_svm, path)
        loaded = repro.load_model(path)
        for data in sample_files.values():
            buf = data[: trained_svm.buffer_size]
            assert loaded.classify_buffer(buf) == trained_svm.classify_buffer(buf)

    def test_open_engine_defaults(self, trained_svm, small_trace):
        engine = repro.open_engine(trained_svm)
        stats = engine.process_trace(small_trace)
        assert stats.classifications > 0
        assert engine.metrics is not None

    def test_open_engine_accepts_model_path(
        self, trained_svm, tmp_path, small_trace
    ):
        path = tmp_path / "model.json"
        repro.save_model(trained_svm, path)
        engine = repro.open_engine(str(path))
        assert engine.process_trace(small_trace).classifications > 0

    def test_open_engine_wraps_iustitia_config(self, trained_svm):
        engine = repro.open_engine(
            trained_svm, repro.IustitiaConfig(buffer_size=32)
        )
        assert isinstance(engine.engine_config, repro.EngineConfig)
        assert engine.config.buffer_size == 32

    def test_open_engine_single_sink(self, trained_svm, small_trace):
        sink = repro.StatsSink()
        engine = repro.open_engine(trained_svm, sink=sink)
        engine.process_trace(small_trace)
        assert len(sink.classified) > 0

    def test_open_engine_sink_list(self, trained_svm, small_trace):
        stats, queue = repro.StatsSink(), repro.QueueSink()
        engine = repro.open_engine(trained_svm, sink=[stats, queue])
        engine.process_trace(small_trace)
        assert len(stats.classified) > 0
        assert sum(len(q) for q in queue.queues.values()) > 0

    def test_open_engine_keeps_stats_surface_with_custom_sinks(
        self, trained_svm, small_trace
    ):
        """A StatsSink always rides along, so evaluate_against works."""
        engine = repro.open_engine(trained_svm, sink=repro.QueueSink())
        engine.process_trace(small_trace)
        assert len(engine.stats.classified) == engine.stats.classifications > 0
        assert engine.evaluate_against(small_trace)["accuracy"] > 0

    def test_open_engine_rejects_non_sink(self, trained_svm):
        with pytest.raises(TypeError, match="ResultSink"):
            repro.open_engine(trained_svm, sink=object())

    def test_open_engine_rejects_non_classifier(self):
        with pytest.raises(TypeError, match="classifier"):
            repro.open_engine(42)

    def test_open_engine_rejects_bad_config(self, trained_svm):
        with pytest.raises(TypeError, match="EngineConfig"):
            repro.open_engine(trained_svm, config={"max_batch": 4})


class TestImportPath:
    """``import repro`` loads what a classify pass runs, and nothing else."""

    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory, small_trace):
        path = tmp_path_factory.mktemp("import-path") / "trace.pcap"
        repro.write_pcap(path, small_trace.packets)
        return path

    @pytest.mark.parametrize(
        "model, svm_modules",
        [
            ("trained_cart", []),
            ("trained_svm", ["repro.ml.svm", "repro.ml.svm.binary",
                             "repro.ml.svm.dagsvm", "repro.ml.svm.kernels"]),
        ],
        ids=["cart", "svm"],
    )
    def test_classify_pass_loads_nothing_more(
        self, request, tmp_path, capture, model, svm_modules
    ):
        path = tmp_path / "model.json"
        repro.save_model(request.getfixturevalue(model), path)
        imported, loaded, classified, scraped = map(
            set, json.loads(_run_cold(_SERVING_PROBE, path, capture))
        )
        assert not imported & {*OFF_PATH_MODULES, "numpy.random"}
        # Only an SVM model adds code, and only the SVM it predicts with.
        assert sorted(loaded - imported) == svm_modules
        assert classified == loaded
        assert scraped - classified == {"repro.obs.exposition"}

    def test_cli_classify_process_imports_nothing_off_path(
        self, tmp_path, capture, trained_cart
    ):
        """The real entry point, as a process, under ``-X importtime``."""
        model = tmp_path / "model.json"
        repro.save_model(trained_cart, model)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "classify",
             str(model), str(capture)],
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in done.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {"repro.cli", "repro.engine.engine"} <= imported
        assert not imported & {*OFF_PATH_MODULES, "numpy.random"}

    def test_first_use_names_resolve(self):
        probe = """
import sys
import repro

assert set(repro.__all__) <= set(dir(repro))
assert "repro.data.corpus" not in sys.modules
from repro import generate_gateway_trace
assert "repro.net.tracegen" in sys.modules
assert callable(repro.build_corpus) and "repro.data.corpus" in sys.modules
assert repro.EntropyEstimator is repro.core.estimation.EntropyEstimator
assert not hasattr(repro.core, "EntropyEstimator")
for name in repro.__all__:
    getattr(repro, name)
print("ok")
"""
        assert _run_cold(probe).strip() == "ok"

    @pytest.mark.parametrize(
        "package",
        ["repro.core", "repro.ingest", "repro.ml", "repro.ml.svm",
         "repro.ml.tree", "repro.net", "repro.obs"],
    )
    def test_package_exports_resolve(self, package):
        """A subpackage exports nothing: names resolve from their
        defining modules or from ``repro``, never through the package."""
        module = importlib.import_module(package)
        assert module.__doc__
        assert not hasattr(module, "__all__")
        assert not hasattr(module, "__getattr__")
        for name, value in vars(module).items():
            if not name.startswith("__"):
                assert inspect.ismodule(value), name
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            module.missing
